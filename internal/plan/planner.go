package plan

import (
	"fmt"
	"runtime"
	"strings"

	"tde/internal/delta"
	"tde/internal/enc"
	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/storage"
	"tde/internal/types"
	"tde/internal/vec"
)

// AggItem is one aggregate in a query ("" Col means COUNT(*)).
type AggItem struct {
	Func exec.AggFunc
	Col  string
	As   string
}

// Computed is a derived column evaluated before grouping.
type Computed struct {
	Name string
	E    expr.Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  string
	Desc bool
}

// Query is a single-table aggregation query — the shape Tableau's visual
// queries take against an extract.
type Query struct {
	Table *storage.Table
	// Delta is the table's write-overlay snapshot (nil or clean = none).
	// A dirty delta forces the plain scan plan with a DeltaScan source:
	// the index and invisible-join rewrites reason from the base table's
	// stored encodings and metadata, which no longer describe the visible
	// rows.
	Delta   *delta.View
	Where   expr.Expr // over named ColRefs; nil = no filter
	Compute []Computed
	GroupBy []string
	Aggs    []AggItem
	// Select lists plain output columns for non-aggregating queries.
	Select  []string
	OrderBy []OrderItem
	// Having filters groups after aggregation, over the aggregate output
	// schema (aliases or generated names like "SUM(v)").
	Having expr.Expr
	// Limit caps the result; with OrderBy it plans a bounded TopN sort
	// instead of a full sort.
	Limit int
}

// Options control the strategic optimizer.
type Options struct {
	// NoIndexPlan disables the IndexTable/IndexedScan rewrite (plan 1 of
	// Fig. 10 is the control that fulfills the query "using the existing
	// system").
	NoIndexPlan bool
	// NoDictPlan disables the invisible-join rewrite.
	NoDictPlan bool
	// OrderedIndex selects Fig. 10's plan 3 (sort the index, use ordered
	// aggregation): <0 = strategic choice by run length, 0 = never,
	// >0 = always.
	OrderedIndex int
	// ParallelWorkers controls parallelism injection (Sect. 2.3.1): an
	// Exchange around scan-plan filters, partial-aggregation workers
	// under grouped queries, and partitioned join builds/probes.
	//   >0  force exactly this many workers on every eligible stage;
	//    0  auto: the strategic optimizer picks a worker count from
	//       GOMAXPROCS and the estimated input cardinality (staying
	//       serial for small inputs or single-core hosts);
	//   <0  disable injection entirely (serial plans).
	// Exchanges use order-preserving routing whenever a scanned column is
	// sorted, so downstream encodings are not degraded (Sect. 4.3);
	// otherwise blocks route freely. Routing overrides that choice.
	ParallelWorkers int
	// Routing overrides the exchange routing decision: 0 = strategic
	// choice from sortedness metadata, >0 = force order-preserving,
	// <0 = force free routing.
	Routing int
	// EncodedExec controls compressed execution (DESIGN.md §12): whether
	// scans emit run-encoded blocks and Select/Aggregate may pick the
	// encoded routines (dict-filter, rle-filter, rle-sum, token-direct
	// grouping). EncodedAuto (the zero value) leaves it on; the explicit
	// levels exist for differential testing and as an escape hatch.
	EncodedExec int
	// ZoneSkip controls zone-map block pruning (DESIGN.md §15): whether
	// sargable WHERE conjuncts are extracted into scan-level zone filters
	// that skip blocks without decoding them. ZoneSkipAuto (the zero
	// value) leaves it on; ZoneSkipOff is the differential sweep's oracle
	// arm and the escape hatch.
	ZoneSkip int
}

// EncodedExec levels.
const (
	// EncodedAuto enables encoded execution (the default).
	EncodedAuto = 0
	// ForceEncodedExec enables encoded execution explicitly — the
	// differential sweep's "forced on" arm.
	ForceEncodedExec = 1
	// EncodedOff disables encoded execution: scans decode every block and
	// operators use the row routines only.
	EncodedOff = -1
)

// ZoneSkip levels.
const (
	// ZoneSkipAuto enables zone-map pruning (the default).
	ZoneSkipAuto = 0
	// ForceZoneSkip enables pruning explicitly — the differential sweep's
	// "forced on" arm.
	ForceZoneSkip = 1
	// ZoneSkipOff disables pruning: scans decode every block.
	ZoneSkipOff = -1
)

// Auto-parallelism thresholds: below parallelMinRows the fan-out costs
// more than it saves; past that, one worker per parallelRowsPerWorker
// rows up to GOMAXPROCS and parallelMaxWorkers.
const (
	parallelMinRows       = 128 << 10
	parallelRowsPerWorker = 64 << 10
	parallelMaxWorkers    = 8
)

// resolveWorkers is the strategic worker-count decision for one parallel
// stage over an estimated rows input. auto reports whether the count came
// from the heuristic (for Explain) rather than an explicit override.
func resolveWorkers(opt Options, rows int) (workers int, auto bool) {
	if opt.ParallelWorkers > 0 {
		return opt.ParallelWorkers, false
	}
	if opt.ParallelWorkers < 0 {
		return 1, false
	}
	maxp := runtime.GOMAXPROCS(0)
	if maxp < 2 || rows < parallelMinRows {
		return 1, true
	}
	w := rows / parallelRowsPerWorker
	if w > maxp {
		w = maxp
	}
	if w > parallelMaxWorkers {
		w = parallelMaxWorkers
	}
	if w < 2 {
		w = 2
	}
	return w, true
}

// workersLabel renders a worker count for Explain, marking heuristic
// choices so the auto-parallelism decision is inspectable.
func workersLabel(workers int, auto bool) string {
	if auto {
		return fmt.Sprintf("%d workers (auto)", workers)
	}
	return fmt.Sprintf("%d workers", workers)
}

// preserveOrderRouting is the strategic routing decision (Sect. 4.3):
// preserve block order when any scanned column is sorted — free routing
// would disturb value order and could ruin downstream encodings — unless
// Options.Routing overrides.
func preserveOrderRouting(opt Options, schema []exec.ColInfo) bool {
	if opt.Routing != 0 {
		return opt.Routing > 0
	}
	for _, info := range schema {
		if info.Meta.SortedKnown && info.Meta.SortedAsc {
			return true
		}
	}
	return false
}

// Explain records the strategic decisions for inspection. Tree is the
// operator tree with the stable per-operator IDs runtime stats key on.
type Explain struct {
	Steps []string
	Tree  *exec.PlanNode
}

func (e *Explain) add(format string, args ...any) {
	e.Steps = append(e.Steps, fmt.Sprintf(format, args...))
}

// String renders the plan outline.
func (e *Explain) String() string { return strings.Join(e.Steps, " => ") }

// Build runs the strategic optimizer over q and returns the physical plan.
// Tactical choices (join algorithm, aggregation algorithm) stay with the
// operators, driven by the metadata FlowTable and the scans derive.
func Build(q Query, opt Options) (exec.Operator, *Explain, error) {
	ex := &Explain{}
	if opt.EncodedExec < 0 {
		ex.add("EncodedExec[off]")
	}
	if q.Where != nil {
		q.Where = expr.Simplify(q.Where)
	}

	var op exec.Operator
	var err error
	switch {
	case deltaDirty(q.Delta):
		op, err = buildScanPlan(q, opt, ex)
	case q.Where != nil && !opt.NoIndexPlan && indexPlanColumn(q) != nil:
		op, err = buildIndexPlan(q, opt, ex)
	case q.Where != nil && !opt.NoDictPlan && dictPlanColumn(q) != nil:
		op, err = buildDictPlan(q, opt, ex)
	default:
		op, err = buildScanPlan(q, opt, ex)
	}
	if err != nil {
		return nil, nil, err
	}

	op, err = finishPlan(op, q, opt, tableRows(q.Table, q.Delta), ex)
	if err != nil {
		return nil, nil, err
	}
	ex.Tree = exec.AssignOpIDs(op)
	return op, ex, nil
}

// neededColumns computes the scan column set.
func neededColumns(q Query) []string {
	seen := map[string]bool{}
	computed := map[string]bool{}
	for _, c := range q.Compute {
		computed[c.Name] = true
	}
	// Aggregate output names (aliases or generated like "SUM(v)") are
	// produced above the scan; ORDER BY and HAVING may reference them.
	for _, a := range q.Aggs {
		if a.As != "" {
			computed[a.As] = true
		} else if a.Col != "" {
			computed[fmt.Sprintf("%s(%s)", a.Func, a.Col)] = true
		} else {
			computed["COUNT(*)"] = true
		}
	}
	var out []string
	add := func(n string) {
		if n != "" && !seen[n] && !computed[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	if q.Where != nil {
		for _, n := range Columns(q.Where) {
			add(n)
		}
	}
	for _, c := range q.Compute {
		for _, n := range Columns(c.E) {
			add(n)
		}
	}
	for _, g := range q.GroupBy {
		add(g)
	}
	for _, a := range q.Aggs {
		add(a.Col)
	}
	for _, s := range q.Select {
		add(s)
	}
	for _, o := range q.OrderBy {
		add(o.Col)
	}
	return out
}

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(e expr.Expr) []expr.Expr {
	if l, ok := e.(*expr.Logic); ok && l.Op == expr.And {
		return append(splitConjuncts(l.L), splitConjuncts(l.R)...)
	}
	return []expr.Expr{e}
}

// combineConjuncts rebuilds an AND tree (nil for an empty list).
func combineConjuncts(cs []expr.Expr) expr.Expr {
	var out expr.Expr
	for _, c := range cs {
		if out == nil {
			out = c
		} else {
			out = expr.NewAnd(out, c)
		}
	}
	return out
}

// isolateColumn splits the WHERE conjuncts into those that reference only
// the given candidate column (pushable into a pseudo-table) and the
// residual. The strategic optimizer's "filtering move-around"
// (Sect. 2.3.1) at work: only whole conjuncts move.
func isolateColumn(where expr.Expr, accept func(*storage.Column) bool,
	tab *storage.Table) (col *storage.Column, pushed, residual expr.Expr) {
	conjuncts := splitConjuncts(where)
	// Find the first acceptable column that at least one conjunct isolates.
	for _, cj := range conjuncts {
		cols := Columns(cj)
		if len(cols) != 1 {
			continue
		}
		c := tab.Column(cols[0])
		if c == nil || !accept(c) {
			continue
		}
		var push, rest []expr.Expr
		for _, other := range conjuncts {
			oc := Columns(other)
			if len(oc) == 1 && oc[0] == cols[0] {
				push = append(push, other)
			} else {
				rest = append(rest, other)
			}
		}
		return c, combineConjuncts(push), combineConjuncts(rest)
	}
	return nil, nil, nil
}

// indexPlanColumn returns the RLE column some conjunct isolates, if the
// IndexTable rewrite applies (Sect. 4.2).
func indexPlanColumn(q Query) *storage.Column {
	c, _, _ := isolateColumn(q.Where, func(c *storage.Column) bool {
		return c.Data.Kind() == enc.RunLength
	}, q.Table)
	return c
}

// dictPlanColumn returns the compressed column some conjunct isolates, if
// the invisible-join rewrite applies (Sect. 4.1): a string (heap) column
// or a dictionary-compressed scalar.
func dictPlanColumn(q Query) *storage.Column {
	c, _, _ := isolateColumn(q.Where, func(c *storage.Column) bool {
		return c.Type == types.String && c.Heap != nil || c.Dict != nil
	}, q.Table)
	return c
}

// deltaDirty reports whether a view actually changes table contents.
func deltaDirty(v *delta.View) bool { return v != nil && v.Dirty() }

// tableRows estimates a table's visible row count under its overlay.
func tableRows(t *storage.Table, v *delta.View) int {
	if deltaDirty(v) {
		return v.VisibleRows()
	}
	return t.Rows()
}

// newTableScan builds the scan source for a table: a plain compressed
// Scan, or a DeltaScan when a write overlay is visible.
func newTableScan(t *storage.Table, v *delta.View, ex *Explain, names ...string) (exec.Operator, error) {
	if deltaDirty(v) {
		scan, err := exec.NewDeltaScan(v, false, names...)
		if err != nil {
			return nil, err
		}
		if ex != nil {
			ex.add("DeltaScan(%s +%d -%d)", t.Name, len(v.Ins), v.DeletedRows)
		}
		return scan, nil
	}
	scan, err := exec.NewScan(t, names...)
	if err != nil {
		return nil, err
	}
	if ex != nil {
		ex.add("Scan(%s)", t.Name)
	}
	return scan, nil
}

// narrowestColumn names t's column whose full scan reads the fewest
// bytes: the narrowest stored value width, ties to the smaller stored
// stream ("" for a table without columns).
func narrowestColumn(t *storage.Table) string {
	var best *storage.Column
	for _, c := range t.Columns {
		if c.Data == nil {
			continue
		}
		if best == nil || c.Data.Width() < best.Data.Width() ||
			c.Data.Width() == best.Data.Width() && c.Data.PhysicalSize() < best.Data.PhysicalSize() {
			best = c
		}
	}
	if best == nil {
		return ""
	}
	return best.Name
}

// buildScanPlan is the control: Scan => Filter (Fig. 10 plan 1), with
// optional exchange-parallelized filtering.
func buildScanPlan(q Query, opt Options, ex *Explain) (exec.Operator, error) {
	cols := neededColumns(q)
	if len(cols) == 0 && len(q.Aggs) > 0 {
		// An aggregate that names no column (COUNT(*)) needs rows, not
		// values: one column gives the row count, and no names would
		// mean every column.
		if c := narrowestColumn(q.Table); c != "" {
			cols = []string{c}
		}
	}
	scan, err := newTableScan(q.Table, q.Delta, ex, cols...)
	if err != nil {
		return nil, err
	}
	attachZoneFilters(scan, q.Where, q.Table, "", opt, ex)
	// DeltaScan always emits decoded blocks (the overlay merge works on
	// plain rows), so only the plain Scan gets the run-emission switch.
	if s, ok := scan.(*exec.Scan); ok && opt.EncodedExec >= 0 {
		s.EmitRuns = true
		if len(cols) == 1 {
			if c := q.Table.Column(cols[0]); c != nil &&
				c.Data.Kind() == enc.RunLength && c.Heap == nil && c.Type != types.String {
				ex.add("EncodedScan[%s runs]", c.Name)
			}
		}
	}
	var op exec.Operator = scan
	if q.Where != nil {
		pred, err := Rebind(q.Where, op.Schema())
		if err != nil {
			return nil, err
		}
		workers, auto := resolveWorkers(opt, tableRows(q.Table, q.Delta))
		if workers > 1 {
			preserve := preserveOrderRouting(opt, scan.Schema())
			newChain := func() []exec.BlockTransform {
				return []exec.BlockTransform{newSelect(nil, pred, opt)}
			}
			op = exec.NewExchange(op, newChain, workers, preserve, scan.Schema())
			routing := "free"
			if preserve {
				routing = "order-preserving"
			}
			ex.add("Exchange[%s, %s] Filter[%s]", workersLabel(workers, auto), routing, pred)
		} else {
			op = newSelect(op, pred, opt)
			ex.add("Filter[%s]", pred)
		}
	}
	return op, nil
}

// buildIndexPlan is the rank-join rewrite (Fig. 10 plans 2 and 3):
// Index => Filter => [Sort =>] FlowTable => IndexedScan.
func buildIndexPlan(q Query, opt Options, ex *Explain) (exec.Operator, error) {
	col, pushed, residual := isolateColumn(q.Where, func(c *storage.Column) bool {
		return c.Data.Kind() == enc.RunLength
	}, q.Table)
	bt, err := IndexTable(col)
	if err != nil {
		return nil, err
	}
	ex.add("IndexTable(%s:%d runs)", col.Name, bt.Rows)
	var inner exec.Operator = exec.NewBuiltScan(bt)
	pred, err := Rebind(pushed, inner.Schema())
	if err != nil {
		return nil, err
	}
	inner = newSelect(inner, pred, opt)
	ex.add("Filter[%s]", pred)

	// Strategic choice of ordered retrieval (Sect. 4.2.2): worth it only
	// when runs are long relative to the block iteration size.
	ordered := opt.OrderedIndex > 0
	if opt.OrderedIndex < 0 {
		avgRun := 0
		if bt.Rows > 0 {
			avgRun = col.Rows() / bt.Rows
		}
		ordered = avgRun >= vec.BlockSize
	}
	if ordered {
		inner = exec.NewSort(inner, exec.SortKey{Col: 0})
		ex.add("Sort[%s]", col.Name)
	}
	ft := exec.NewFlowTable(inner, exec.DefaultFlowTableConfig())
	ex.add("FlowTable")

	// Fetch the remaining needed columns from the outer table.
	var outerCols []string
	for _, n := range neededColumns(q) {
		if n != col.Name {
			outerCols = append(outerCols, n)
		}
	}
	is, err := exec.NewIndexedScan(ft, []int{0}, 1, 2, q.Table, outerCols...)
	if err != nil {
		return nil, err
	}
	ex.add("IndexedScan(%s)", strings.Join(outerCols, ","))
	var op exec.Operator = is
	if residual != nil {
		// Conjuncts on other columns stay above the indexed scan.
		rpred, err := Rebind(residual, op.Schema())
		if err != nil {
			return nil, err
		}
		op = newSelect(op, rpred, opt)
		ex.add("ResidualFilter[%s]", rpred)
	}
	return op, nil
}

// buildDictPlan is the invisible-join rewrite (Sect. 4.1): the filter is
// pushed to a DictionaryTable, materialized by a FlowTable (with RLE
// disallowed, Sect. 4.3), and joined back against the main table's tokens;
// the tactical optimizer upgrades the join to a fetch join when the
// filtered tokens form a contiguous range.
func buildDictPlan(q Query, opt Options, ex *Explain) (exec.Operator, error) {
	col, pushed, residual := isolateColumn(q.Where, func(c *storage.Column) bool {
		return c.Type == types.String && c.Heap != nil || c.Dict != nil
	}, q.Table)
	bt, err := DictionaryTable(col)
	if err != nil {
		return nil, err
	}
	ex.add("DictionaryTable(%s:%d)", col.Name, bt.Rows)
	var inner exec.Operator = exec.NewBuiltScan(bt)
	pred, err := Rebind(pushed, inner.Schema())
	if err != nil {
		return nil, err
	}
	inner = newSelect(inner, pred, opt)
	ex.add("Filter[%s] pushed to inner", pred)
	// Keep only the token column on the inner side: the join is a
	// semijoin that restricts the outer tokens.
	const innerKeyIdx = 0
	if col.Type != types.String {
		s := inner.Schema()
		inner = exec.NewProject(inner,
			[]expr.Expr{expr.NewColRef(0, s[0].Name, s[0].Type)},
			[]string{s[0].Name})
	}
	cfg := exec.DefaultFlowTableConfig()
	cfg.DisallowRLE = true    // hash-join inner restriction (Sect. 4.3)
	cfg.PreserveTokens = true // join keys must stay the outer table's tokens
	ft := exec.NewFlowTable(inner, cfg)
	ex.add("FlowTable(inner, no-RLE)")

	scan, err := exec.NewScan(q.Table, neededColumns(q)...)
	if err != nil {
		return nil, err
	}
	scan.EmitRuns = opt.EncodedExec >= 0 // the join probe materializes if needed
	attachZoneFilters(scan, q.Where, q.Table, "", opt, ex)
	ex.add("Scan(%s)", q.Table.Name)
	outerKey := -1
	for i, info := range scan.Schema() {
		if info.Name == col.Name {
			outerKey = i
			break
		}
	}
	if outerKey < 0 {
		return nil, fmt.Errorf("plan: filter column %q not scanned", col.Name)
	}
	join := exec.NewHashJoin(scan, ft, outerKey, innerKeyIdx, exec.JoinAuto)
	if workers, auto := resolveWorkers(opt, q.Table.Rows()); workers > 1 {
		join.Workers = workers
		join.PreserveOrder = preserveOrderRouting(opt, scan.Schema())
		ex.add("InvisibleJoin(%s)[%s]", col.Name, workersLabel(workers, auto))
	} else {
		ex.add("InvisibleJoin(%s)", col.Name)
	}
	var op exec.Operator = join
	if residual != nil {
		rpred, err := Rebind(residual, op.Schema())
		if err != nil {
			return nil, err
		}
		op = newSelect(op, rpred, opt)
		ex.add("ResidualFilter[%s]", rpred)
	}
	return op, nil
}

// finishPlan appends computation, aggregation, ordering and projection.
// rows is the estimated input cardinality driving the auto-parallelism
// decision for the aggregation stage.
func finishPlan(op exec.Operator, q Query, opt Options, rows int, ex *Explain) (exec.Operator, error) {
	if len(q.Compute) > 0 {
		schema := op.Schema()
		var exprs []expr.Expr
		var names []string
		for _, info := range schema {
			exprs = append(exprs, expr.NewColRef(len(exprs), info.Name, info.Type))
			names = append(names, info.Name)
		}
		for _, c := range q.Compute {
			e, err := Rebind(c.E, schema)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, expr.Simplify(e))
			names = append(names, c.Name)
		}
		op = exec.NewProject(op, exprs, names)
		ex.add("Compute[%s]", strings.Join(names[len(names)-len(q.Compute):], ","))
	}

	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		schema := op.Schema()
		var keyIdxs []int
		for _, g := range q.GroupBy {
			idx := colIndex(schema, g)
			if idx < 0 {
				return nil, fmt.Errorf("plan: unknown group column %q", g)
			}
			keyIdxs = append(keyIdxs, idx)
		}
		var specs []exec.AggSpec
		for _, a := range q.Aggs {
			idx := -1
			if a.Col != "" {
				idx = colIndex(schema, a.Col)
				if idx < 0 {
					return nil, fmt.Errorf("plan: unknown aggregate column %q", a.Col)
				}
			}
			specs = append(specs, exec.AggSpec{Func: a.Func, Col: idx, Name: a.As})
		}
		workers, auto := resolveWorkers(opt, rows)
		// In auto mode a single sorted group key stays serial: ordered
		// aggregation emits groups as runs close, which partial
		// aggregation would forfeit by splitting runs across workers.
		if auto && workers > 1 && len(keyIdxs) == 1 {
			if m := schema[keyIdxs[0]].Meta; m.SortedKnown && m.SortedAsc {
				workers = 1
			}
		}
		// Either operator picks its grouping mode from the key metadata
		// at Open through the same chooseAggMode; the workers of the
		// parallel one run the direct mode too.
		if workers > 1 {
			pa := exec.NewParallelAggregate(op, keyIdxs, specs, workers)
			pa.EncodedOff = opt.EncodedExec < 0
			op = pa
			ex.add("ParallelAggregate[%s, %d keys, %d aggs]",
				workersLabel(workers, auto), len(keyIdxs), len(specs))
		} else {
			agg := exec.NewAggregate(op, keyIdxs, specs, exec.AggAuto)
			agg.EncodedOff = opt.EncodedExec < 0
			op = agg
			ex.add("Aggregate[%d keys, %d aggs]", len(keyIdxs), len(specs))
		}
		if q.Having != nil {
			pred, err := Rebind(expr.Simplify(q.Having), op.Schema())
			if err != nil {
				return nil, err
			}
			op = newSelect(op, pred, opt)
			ex.add("Having[%s]", pred)
		}
	} else if len(q.Select) > 0 {
		schema := op.Schema()
		var exprs []expr.Expr
		var names []string
		for _, s := range q.Select {
			idx := colIndex(schema, s)
			if idx < 0 {
				return nil, fmt.Errorf("plan: unknown select column %q", s)
			}
			exprs = append(exprs, expr.NewColRef(idx, s, schema[idx].Type))
			names = append(names, s)
		}
		op = exec.NewProject(op, exprs, names)
		ex.add("Project[%s]", strings.Join(names, ","))
	}

	if len(q.OrderBy) > 0 {
		schema := op.Schema()
		var keys []exec.SortKey
		for _, o := range q.OrderBy {
			idx := colIndex(schema, o.Col)
			if idx < 0 {
				return nil, fmt.Errorf("plan: unknown order column %q", o.Col)
			}
			keys = append(keys, exec.SortKey{Col: idx, Desc: o.Desc})
		}
		if q.Limit > 0 {
			// Bounded sort: keep only the top rows instead of
			// materializing everything.
			op = exec.NewTopN(op, q.Limit, keys...)
			ex.add("TopN[%d, %d keys]", q.Limit, len(keys))
			return op, nil
		}
		op = exec.NewSort(op, keys...)
		ex.add("Sort[%d keys]", len(keys))
	}
	if q.Limit > 0 {
		op = exec.NewLimit(op, q.Limit)
		ex.add("Limit[%d]", q.Limit)
	}
	return op, nil
}

// newSelect builds a filter with the plan-level encoded-execution switch
// threaded through, so every Select in a plan obeys Options.EncodedExec.
func newSelect(child exec.Operator, pred expr.Expr, opt Options) *exec.Select {
	s := exec.NewSelect(child, pred)
	s.EncodedOff = opt.EncodedExec < 0
	return s
}

func colIndex(schema []exec.ColInfo, name string) int {
	for i, c := range schema {
		if c.Name == name {
			return i
		}
	}
	return -1
}
