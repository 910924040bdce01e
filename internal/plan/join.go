package plan

import (
	"fmt"

	"tde/internal/delta"
	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/storage"
)

// JoinSpec describes one many-to-one join step against a dimension table.
type JoinSpec struct {
	Table *storage.Table
	// Delta is the dimension's write-overlay snapshot (nil = none).
	Delta *delta.View
	// Alias prefixes the joined table's column names ("alias.col"); empty
	// keeps bare names.
	Alias string
	// OuterKey names a column of the accumulated outer schema; InnerKey a
	// column of Table.
	OuterKey, InnerKey string
	// LeftOuter keeps unmatched outer rows with NULL inner columns.
	LeftOuter bool
}

// JoinQuery is a star-shaped query: a fact table joined to dimension
// tables, then filtered/aggregated like Query. Joins follow Tableau's
// NULL join semantics (a reason the TDE exists, Sect. 2.3): NULL keys
// match NULL keys, because the sentinel value compares equal to itself.
type JoinQuery struct {
	Fact *storage.Table
	// FactDelta is the fact table's write-overlay snapshot (nil = none).
	FactDelta *delta.View
	FactAlias string
	Joins     []JoinSpec

	Where   expr.Expr
	Compute []Computed
	GroupBy []string
	Aggs    []AggItem
	Select  []string
	OrderBy []OrderItem
	Having  expr.Expr
	Limit   int
}

// BuildJoin plans a JoinQuery: scan the fact table, hash-join each
// dimension (inner sides materialized by FlowTables with the Sect. 4.3
// RLE restriction), then apply the usual filter/compute/aggregate tail.
// Tactical join-algorithm upgrades (fetch/direct) happen per join from
// the dimensions' FlowTable metadata.
//
// The strategic moves of the single-table planner apply per input
// (DESIGN.md §4): WHERE conjuncts that one input owns run as a filter on
// that input's scan, below the joins, and feed its zone filters; each
// scan reads only the columns the query names on that input.
func BuildJoin(q JoinQuery, opt Options) (exec.Operator, *Explain, error) {
	ex := &Explain{}
	if opt.EncodedExec < 0 {
		ex.add("EncodedExec[off]")
	}
	ins := []*joinInput{{table: q.Fact, delta: q.FactDelta, alias: q.FactAlias, pushable: true}}
	for _, j := range q.Joins {
		if j.Table.ColumnIndex(j.InnerKey) < 0 {
			return nil, nil, fmt.Errorf("plan: join key %q not in table %q", j.InnerKey, j.Table.Name)
		}
		ins = append(ins, &joinInput{table: j.Table, delta: j.Delta, alias: j.Alias,
			key: j.InnerKey, pushable: !j.LeftOuter})
	}

	// Reuse the single-table tail by lowering into a Query with the fact
	// table ignored (the operators are already built).
	tail := Query{
		Compute: q.Compute,
		GroupBy: q.GroupBy,
		Aggs:    q.Aggs,
		Select:  q.Select,
		OrderBy: q.OrderBy,
		Having:  q.Having,
		Limit:   q.Limit,
	}
	// Filtering move-around (Sect. 2.3.1): a whole conjunct moves below the
	// joins when every name in it belongs to one pushable input.
	if q.Where != nil {
		var residual []expr.Expr
		for _, cj := range splitConjuncts(expr.Simplify(q.Where)) {
			if in := soleOwner(ins, Columns(cj)); in != nil && in.pushable {
				in.pushed = append(in.pushed, cj)
			} else {
				residual = append(residual, cj)
			}
		}
		tail.Where = combineConjuncts(residual)
	}
	// Column pruning; a bare join projection keeps every column.
	if len(q.Select) > 0 || len(q.GroupBy) > 0 || len(q.Aggs) > 0 {
		names := neededColumns(tail)
		for _, in := range ins {
			for _, cj := range in.pushed {
				names = append(names, Columns(cj)...)
			}
		}
		for i, j := range q.Joins {
			names = append(names, j.OuterKey)
			ins[i+1].need(j.InnerKey)
		}
		for _, n := range names {
			if in, col := owner(ins, n); in != nil {
				in.need(col)
			}
		}
	}

	op, err := ins[0].plan(opt, ex)
	if err != nil {
		return nil, nil, err
	}
	for i, j := range q.Joins {
		inner, err := ins[i+1].plan(opt, ex)
		if err != nil {
			return nil, nil, err
		}
		cfg := exec.DefaultFlowTableConfig()
		cfg.DisallowRLE = true // hash-join inner restriction (Sect. 4.3)
		ft := exec.NewFlowTable(inner, cfg)
		outerIdx := colIndex(op.Schema(), j.OuterKey)
		if outerIdx < 0 {
			return nil, nil, fmt.Errorf("plan: join key %q not in outer schema", j.OuterKey)
		}
		innerIdx := colIndex(ft.Schema(), qualify(j.Alias, j.InnerKey))
		join := exec.NewHashJoin(op, ft, outerIdx, innerIdx, exec.JoinAuto)
		join.LeftOuter = j.LeftOuter
		kind := "Join"
		if j.LeftOuter {
			kind = "LeftJoin"
		}
		if workers, auto := resolveWorkers(opt, tableRows(q.Fact, q.FactDelta)); workers > 1 {
			join.Workers = workers
			join.PreserveOrder = preserveOrderRouting(opt, op.Schema())
			ex.add("%s(%s.%s = %s.%s)[%s]", kind, q.Fact.Name, j.OuterKey,
				j.Table.Name, j.InnerKey, workersLabel(workers, auto))
		} else {
			ex.add("%s(%s.%s = %s.%s)", kind, q.Fact.Name, j.OuterKey, j.Table.Name, j.InnerKey)
		}
		op = join
	}

	if tail.Where != nil {
		pred, err := Rebind(tail.Where, op.Schema())
		if err != nil {
			return nil, nil, err
		}
		op = newSelect(op, pred, opt)
		ex.add("Filter[%s]", pred)
	}
	op, err = finishPlan(op, tail, opt, tableRows(q.Fact, q.FactDelta), ex)
	if err != nil {
		return nil, nil, err
	}
	ex.Tree = exec.AssignOpIDs(op)
	return op, ex, nil
}

// joinInput is one input of a star join — the fact table first, then the
// dimensions in join order — with the conjuncts and columns the planner
// assigned to it.
type joinInput struct {
	table *storage.Table
	delta *delta.View
	alias string
	// key is a dimension's inner key; the join drops it from its output,
	// so it owns no name.
	key string
	// pushable marks inputs whose own conjuncts may run below the joins:
	// the fact side always, a dimension only when inner-joined, because a
	// LEFT JOIN's NULL-extended rows must still see the filter.
	pushable bool
	pushed   []expr.Expr
	// cols is the set of stored columns the scan reads; nil reads all.
	cols map[string]bool
}

func (in *joinInput) need(col string) {
	if in.cols == nil {
		in.cols = map[string]bool{}
	}
	in.cols[col] = true
}

// plan builds the input's scan (needed columns in table order), its zone
// filters, the alias rename and the pushed filter.
func (in *joinInput) plan(opt Options, ex *Explain) (exec.Operator, error) {
	var names []string
	for _, c := range in.table.Columns {
		if in.cols[c.Name] {
			names = append(names, c.Name)
		}
	}
	scan, err := newTableScan(in.table, in.delta, ex, names...)
	if err != nil {
		return nil, err
	}
	where := combineConjuncts(in.pushed)
	attachZoneFilters(scan, where, in.table, in.alias, opt, ex)
	var op exec.Operator = aliasOp{Operator: scan, prefix: in.alias}
	if where == nil {
		return op, nil
	}
	pred, err := Rebind(where, op.Schema())
	if err != nil {
		return nil, err
	}
	ex.add("Filter[%s]", pred)
	return newSelect(op, pred, opt), nil
}

// owner resolves a joined-schema name to the first input with a matching
// qualified column — the first-match rule colIndex applies to the joined
// schema — and returns that column's stored name. nil means no input
// stores the name (a computed column, or an unknown one).
func owner(ins []*joinInput, name string) (*joinInput, string) {
	for _, in := range ins {
		for _, c := range in.table.Columns {
			if c.Name != in.key && qualify(in.alias, c.Name) == name {
				return in, c.Name
			}
		}
	}
	return nil, ""
}

// soleOwner returns the input owning every name, or nil when the names
// span inputs, name no stored column, or are empty.
func soleOwner(ins []*joinInput, names []string) *joinInput {
	var only *joinInput
	for _, n := range names {
		in, _ := owner(ins, n)
		if in == nil || only != nil && in != only {
			return nil
		}
		only = in
	}
	return only
}

func qualify(alias, name string) string {
	if alias == "" {
		return name
	}
	return alias + "." + name
}

// aliasOp renames an operator's output columns with a prefix so joined
// schemas stay unambiguous.
type aliasOp struct {
	exec.Operator
	prefix string
}

func (a aliasOp) Schema() []exec.ColInfo {
	in := a.Operator.Schema()
	if a.prefix == "" {
		return in
	}
	out := make([]exec.ColInfo, len(in))
	copy(out, in)
	for i := range out {
		out[i].Name = a.prefix + "." + out[i].Name
	}
	return out
}

// BuildTable lets aliased FlowTable children keep working; aliasOp wraps
// flow operators only, so this is never reached for stop-and-go nodes.
func (a aliasOp) BuildTable(qc *exec.QueryCtx) (*exec.Built, error) {
	if ts, ok := a.Operator.(exec.TableSource); ok {
		return ts.BuildTable(qc)
	}
	return nil, fmt.Errorf("plan: alias wraps a flow operator")
}

// The Instrumented delegation below makes the alias transparent to
// AssignOpIDs: the wrapped operator keeps its own identity and stats, and
// only the rendered label carries the alias.

func (a aliasOp) OpID() int {
	if inst, ok := a.Operator.(exec.Instrumented); ok {
		return inst.OpID()
	}
	return 0
}

func (a aliasOp) SetOpID(id int) {
	if inst, ok := a.Operator.(exec.Instrumented); ok {
		inst.SetOpID(id)
	}
}

func (a aliasOp) OpKind() string {
	if inst, ok := a.Operator.(exec.Instrumented); ok {
		return inst.OpKind()
	}
	return "Alias"
}

func (a aliasOp) OpLabel() string {
	label := ""
	if inst, ok := a.Operator.(exec.Instrumented); ok {
		label = inst.OpLabel()
	}
	if a.prefix == "" {
		return label
	}
	if label == "" {
		return "as " + a.prefix
	}
	return label + " as " + a.prefix
}

func (a aliasOp) OpChildren() []exec.Operator {
	if inst, ok := a.Operator.(exec.Instrumented); ok {
		return inst.OpChildren()
	}
	return nil
}
