package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/storage"
	"tde/internal/types"
)

func starSchema(t testing.TB, n int) (fact, dim *storage.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	fk := make([]int64, n)
	amount := make([]int64, n)
	for i := range fk {
		fk[i] = int64(rng.Intn(50))
		amount[i] = int64(rng.Intn(1000))
	}
	fk[7] = types.NullInteger // a NULL foreign key (Tableau join semantics)
	fact = &storage.Table{Name: "sales", Columns: []*storage.Column{
		intColumn("fk", types.Integer, fk),
		intColumn("amount", types.Integer, amount),
	}}
	pk := make([]int64, 51)
	region := make([]int64, 51)
	for i := 0; i < 50; i++ {
		pk[i] = int64(i)
		region[i] = int64(i % 4)
	}
	pk[50] = types.NullInteger // a NULL primary key row
	region[50] = 99
	dim = &storage.Table{Name: "product", Columns: []*storage.Column{
		intColumn("pk", types.Integer, pk),
		intColumn("region", types.Integer, region),
	}}
	return fact, dim
}

func TestBuildJoinAggregates(t *testing.T) {
	fact, dim := starSchema(t, 20000)
	q := JoinQuery{
		Fact:    fact,
		Joins:   []JoinSpec{{Table: dim, OuterKey: "fk", InnerKey: "pk"}},
		GroupBy: []string{"region"},
		Aggs:    []AggItem{{Func: exec.Sum, Col: "amount"}, {Func: exec.Count, Col: ""}},
		OrderBy: []OrderItem{{Col: "region"}},
	}
	op, ex, err := BuildJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.String(), "Join") {
		t.Fatalf("plan: %s", ex)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// Reference.
	fkc, ac := fact.Column("fk"), fact.Column("amount")
	pkToRegion := map[int64]int64{}
	for i := 0; i < dim.Rows(); i++ {
		pkToRegion[int64(dim.Columns[0].Value(i))] = int64(dim.Columns[1].Value(i))
	}
	wantSum := map[int64]int64{}
	wantCnt := map[int64]int64{}
	for i := 0; i < fact.Rows(); i++ {
		r, ok := pkToRegion[int64(fkc.Value(i))]
		if !ok {
			continue
		}
		wantSum[r] += int64(ac.Value(i))
		wantCnt[r]++
	}
	if len(rows) != len(wantSum) {
		t.Fatalf("%d regions, want %d", len(rows), len(wantSum))
	}
	for _, r := range rows {
		reg := int64(r[0])
		if int64(r[1]) != wantSum[reg] || int64(r[2]) != wantCnt[reg] {
			t.Fatalf("region %d: %d/%d want %d/%d", reg,
				int64(r[1]), int64(r[2]), wantSum[reg], wantCnt[reg])
		}
	}
}

func TestJoinNullSemantics(t *testing.T) {
	// Tableau NULL join semantics: the NULL fk row matches the NULL pk
	// dimension row (sentinel equality) — one of the business requirements
	// that motivated the TDE (Sect. 2.3).
	fact, dim := starSchema(t, 1000)
	q := JoinQuery{
		Fact:  fact,
		Joins: []JoinSpec{{Table: dim, OuterKey: "fk", InnerKey: "pk"}},
		Where: expr.NewCmp(expr.EQ, expr.NewColRef(0, "region", types.Integer),
			expr.NewIntConst(99)),
		Aggs: []AggItem{{Func: exec.Count, Col: ""}},
	}
	op, _, err := BuildJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the one NULL-fk row lands in the region-99 (NULL pk) group.
	if int64(rows[0][0]) != 1 {
		t.Fatalf("NULL join matched %d rows, want 1", int64(rows[0][0]))
	}
}

func TestLeftOuterJoinKeepsUnmatched(t *testing.T) {
	fact, dim := starSchema(t, 500)
	// Shrink the dimension so some fks are unmatched.
	small := &storage.Table{Name: "product", Columns: []*storage.Column{
		intColumn("pk", types.Integer, []int64{0, 1, 2}),
		intColumn("region", types.Integer, []int64{0, 1, 0}),
	}}
	_ = dim
	q := JoinQuery{
		Fact:  fact,
		Joins: []JoinSpec{{Table: small, OuterKey: "fk", InnerKey: "pk", LeftOuter: true}},
		Aggs:  []AggItem{{Func: exec.Count, Col: ""}, {Func: exec.Count, Col: "region"}},
	}
	op, _, err := BuildJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	total, matched := int64(rows[0][0]), int64(rows[0][1])
	if total != 500 {
		t.Fatalf("left outer lost rows: %d", total)
	}
	if matched >= total || matched == 0 {
		t.Fatalf("matched %d of %d — expected a strict subset", matched, total)
	}
}

func TestJoinWithAliases(t *testing.T) {
	fact, dim := starSchema(t, 2000)
	q := JoinQuery{
		Fact: fact, FactAlias: "f",
		Joins:   []JoinSpec{{Table: dim, Alias: "d", OuterKey: "f.fk", InnerKey: "pk"}},
		GroupBy: []string{"d.region"},
		Aggs:    []AggItem{{Func: exec.Count, Col: ""}},
	}
	op, _, err := BuildJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // regions 0..3 plus the NULL-pk region 99
		t.Fatalf("%d alias-qualified groups", len(rows))
	}
}

func TestJoinErrors(t *testing.T) {
	fact, dim := starSchema(t, 100)
	if _, _, err := BuildJoin(JoinQuery{Fact: fact,
		Joins: []JoinSpec{{Table: dim, OuterKey: "nope", InnerKey: "pk"}}}, Options{}); err == nil {
		t.Error("bad outer key accepted")
	}
	if _, _, err := BuildJoin(JoinQuery{Fact: fact,
		Joins: []JoinSpec{{Table: dim, OuterKey: "fk", InnerKey: "nope"}}}, Options{}); err == nil {
		t.Error("bad inner key accepted")
	}
}

// snowflake builds sales -> product -> category. Some sales.fk values
// have no product (LEFT JOIN keeps them), some product regions are NULL,
// and sales and product share the bare column name "tag" with disjoint
// values, so a test can tell which side a name resolved to.
func snowflake(t testing.TB) (sales, product, category *storage.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	const n = 6000
	fk, amount, tag := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range fk {
		fk[i] = int64(rng.Intn(60)) // 50..59 match no product
		amount[i] = int64(rng.Intn(1000))
		tag[i] = int64(rng.Intn(5))
	}
	sales = &storage.Table{Name: "sales", Columns: []*storage.Column{
		intColumn("fk", types.Integer, fk),
		intColumn("amount", types.Integer, amount),
		intColumn("tag", types.Integer, tag),
	}}
	pk, region, cat, ptag := make([]int64, 50), make([]int64, 50), make([]int64, 50), make([]int64, 50)
	for i := range pk {
		pk[i] = int64(i)
		region[i] = int64(i % 4)
		if i%7 == 0 {
			region[i] = types.NullInteger
		}
		cat[i] = int64(i % 6)
		ptag[i] = int64(10 + i%3)
	}
	product = &storage.Table{Name: "product", Columns: []*storage.Column{
		intColumn("pk", types.Integer, pk),
		intColumn("region", types.Integer, region),
		intColumn("cat", types.Integer, cat),
		intColumn("tag", types.Integer, ptag),
	}}
	ck, label := make([]int64, 6), make([]int64, 6)
	for i := range ck {
		ck[i] = int64(i)
		label[i] = int64(100 + i)
	}
	category = &storage.Table{Name: "category", Columns: []*storage.Column{
		intColumn("ck", types.Integer, ck),
		intColumn("label", types.Integer, label),
	}}
	return sales, product, category
}

func intRef(name string) expr.Expr { return expr.NewColRef(-1, name, types.Integer) }

func cmpConst(op expr.CmpOp, name string, v int64) expr.Expr {
	return expr.NewCmp(op, intRef(name), expr.NewIntConst(v))
}

func collectSorted(t *testing.T, op exec.Operator) []string {
	t.Helper()
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// unpushedRows answers q the way BuildJoin planned before filter
// move-around and column pruning: every column of every input joined,
// then the whole WHERE in one filter above the joins.
func unpushedRows(t *testing.T, q JoinQuery) []string {
	t.Helper()
	op, _, err := BuildJoin(JoinQuery{Fact: q.Fact, FactAlias: q.FactAlias, Joins: q.Joins},
		Options{ParallelWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if q.Where != nil {
		pred, err := Rebind(expr.Simplify(q.Where), op.Schema())
		if err != nil {
			t.Fatal(err)
		}
		op = exec.NewSelect(op, pred)
	}
	op, err = finishPlan(op, Query{Compute: q.Compute, GroupBy: q.GroupBy, Aggs: q.Aggs,
		Select: q.Select, OrderBy: q.OrderBy, Having: q.Having, Limit: q.Limit},
		Options{ParallelWorkers: -1}, 0, &Explain{})
	if err != nil {
		t.Fatal(err)
	}
	return collectSorted(t, op)
}

// buildPushed plans q serially, checks its answer against the unpushed
// plan, and returns the plan.
func buildPushed(t *testing.T, q JoinQuery) (exec.Operator, *Explain, []string) {
	t.Helper()
	op, ex, err := BuildJoin(q, Options{ParallelWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := collectSorted(t, op)
	if want := unpushedRows(t, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("pushed plan answers %v, unpushed %v\nplan: %s", got, want, ex)
	}
	return op, ex, got
}

// findNode returns the first node of kind in pre-order.
func findNode(n *exec.PlanNode, kind string) *exec.PlanNode {
	if n == nil || n.Kind == kind {
		return n
	}
	for _, c := range n.Children {
		if f := findNode(c, kind); f != nil {
			return f
		}
	}
	return nil
}

// scanColumns maps each scan's label to the column names it emits.
func scanColumns(op exec.Operator) map[string][]string {
	out := map[string][]string{}
	var walk func(exec.Operator)
	walk = func(op exec.Operator) {
		inst, ok := op.(exec.Instrumented)
		if !ok {
			return
		}
		if inst.OpKind() == "Scan" {
			for _, c := range op.Schema() {
				out[inst.OpLabel()] = append(out[inst.OpLabel()], c.Name)
			}
		}
		for _, c := range inst.OpChildren() {
			walk(c)
		}
	}
	walk(op)
	return out
}

// filterOver reports whether the plan has a Select directly above a node
// of kind whose label is label.
func filterOver(n *exec.PlanNode, kind, label string) bool {
	if n == nil {
		return false
	}
	if n.Kind == "Select" && len(n.Children) == 1 &&
		n.Children[0].Kind == kind && n.Children[0].Label == label {
		return true
	}
	for _, c := range n.Children {
		if filterOver(c, kind, label) {
			return true
		}
	}
	return false
}

func TestJoinPushesFactFilterBelowJoin(t *testing.T) {
	sales, product, _ := snowflake(t)
	op, ex, _ := buildPushed(t, JoinQuery{
		Fact:    sales,
		Joins:   []JoinSpec{{Table: product, OuterKey: "fk", InnerKey: "pk"}},
		Where:   cmpConst(expr.GT, "amount", 700),
		GroupBy: []string{"region"},
		Aggs:    []AggItem{{Func: exec.Sum, Col: "amount"}, {Func: exec.Count}},
	})
	if !filterOver(ex.Tree, "Scan", "sales") {
		t.Fatalf("fact filter not on the fact scan: %s", ex)
	}
	if j := findNode(ex.Tree, "HashJoin"); findNode(j.Children[1], "Select") != nil {
		t.Fatalf("fact filter reached the dimension side: %s", ex)
	}
	// Each scan reads only what the query names on it.
	want := map[string][]string{"sales": {"fk", "amount"}, "product": {"pk", "region"}}
	if got := scanColumns(op); !reflect.DeepEqual(got, want) {
		t.Fatalf("scanned columns %v, want %v", got, want)
	}
}

func TestJoinPushesDimFilterUnderFlowTable(t *testing.T) {
	sales, product, _ := snowflake(t)
	_, ex, rows := buildPushed(t, JoinQuery{
		Fact:    sales,
		Joins:   []JoinSpec{{Table: product, OuterKey: "fk", InnerKey: "pk"}},
		Where:   cmpConst(expr.EQ, "region", 2),
		GroupBy: []string{"region"},
		Aggs:    []AggItem{{Func: exec.Count}},
	})
	ft := findNode(ex.Tree, "FlowTable")
	if ft == nil || len(ft.Children) != 1 || ft.Children[0].Kind != "Select" {
		t.Fatalf("dimension filter not under the FlowTable: %s", ex)
	}
	if len(rows) != 1 {
		t.Fatalf("want the one region-2 group, got %v", rows)
	}
}

func TestLeftJoinKeepsDimFiltersAbove(t *testing.T) {
	sales, product, _ := snowflake(t)
	for _, where := range []expr.Expr{
		expr.NewIsNull(intRef("region"), false),
		cmpConst(expr.GT, "region", 1),
	} {
		q := JoinQuery{
			Fact:  sales,
			Joins: []JoinSpec{{Table: product, OuterKey: "fk", InnerKey: "pk", LeftOuter: true}},
			Where: where,
			Aggs:  []AggItem{{Func: exec.Count}},
		}
		_, ex, rows := buildPushed(t, q)
		if !filterOver(ex.Tree, "HashJoin", "") {
			t.Fatalf("WHERE %s did not stay above the LEFT JOIN: %s", where, ex)
		}
		if ft := findNode(ex.Tree, "FlowTable"); ft.Children[0].Kind != "Scan" {
			t.Fatalf("WHERE %s moved under the LEFT JOIN's inner side: %s", where, ex)
		}
		if _, ok := where.(*expr.IsNull); !ok {
			continue
		}
		// Unmatched rows read a NULL region and must survive IS NULL.
		fk := sales.Column("fk")
		want := 0
		for i := 0; i < sales.Rows(); i++ {
			k := int64(fk.Value(i))
			if k >= 50 || k%7 == 0 {
				want++
			}
		}
		if rows[0] != fmt.Sprint([]uint64{uint64(want)}) {
			t.Fatalf("IS NULL kept %v rows, want %d (unmatched plus NULL regions)", rows, want)
		}
	}
}

func TestJoinBareNameResolvesToFact(t *testing.T) {
	// "tag" is a column of both inputs; like colIndex on the joined
	// schema, the planner gives it to the fact side.
	sales, product, _ := snowflake(t)
	_, ex, rows := buildPushed(t, JoinQuery{
		Fact:  sales,
		Joins: []JoinSpec{{Table: product, OuterKey: "fk", InnerKey: "pk"}},
		Where: cmpConst(expr.EQ, "tag", 1),
		Aggs:  []AggItem{{Func: exec.Count}},
	})
	if !filterOver(ex.Tree, "Scan", "sales") {
		t.Fatalf("bare shared name not resolved to the fact side: %s", ex)
	}
	if rows[0] == fmt.Sprint([]uint64{0}) {
		t.Fatal("fact tag filter matched nothing; product tags were tested instead")
	}
}

func TestJoinSnowflakeKeepsSecondJoinKey(t *testing.T) {
	sales, product, category := snowflake(t)
	op, _, _ := buildPushed(t, JoinQuery{
		Fact: sales,
		Joins: []JoinSpec{
			{Table: product, OuterKey: "fk", InnerKey: "pk"},
			{Table: category, OuterKey: "cat", InnerKey: "ck"},
		},
		Where:   cmpConst(expr.LT, "label", 104),
		GroupBy: []string{"label"},
		Aggs:    []AggItem{{Func: exec.Sum, Col: "amount"}},
	})
	// product reads cat, which only the second join names.
	want := map[string][]string{
		"sales": {"fk", "amount"}, "product": {"pk", "cat"}, "category": {"ck", "label"},
	}
	if got := scanColumns(op); !reflect.DeepEqual(got, want) {
		t.Fatalf("scanned columns %v, want %v", got, want)
	}
}

func TestJoinWithoutProjectionKeepsAllColumns(t *testing.T) {
	sales, product, _ := snowflake(t)
	op, ex, _ := buildPushed(t, JoinQuery{
		Fact:  sales,
		Joins: []JoinSpec{{Table: product, OuterKey: "fk", InnerKey: "pk"}},
		Where: cmpConst(expr.GT, "amount", 990),
	})
	var names []string
	for _, c := range op.Schema() {
		names = append(names, c.Name)
	}
	// Every column of both inputs, less the inner key the join drops.
	if want := []string{"fk", "amount", "tag", "region", "cat", "tag"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("bare join projects %v, want %v", names, want)
	}
	if !filterOver(ex.Tree, "Scan", "sales") {
		t.Fatalf("fact filter not pushed in a bare join: %s", ex)
	}
}

func TestJoinAliasedZoneFilters(t *testing.T) {
	sales, product, _ := snowflake(t)
	q := JoinQuery{
		Fact: sales, FactAlias: "s",
		Joins:   []JoinSpec{{Table: product, Alias: "p", OuterKey: "s.fk", InnerKey: "pk"}},
		Where:   expr.NewAnd(cmpConst(expr.GE, "p.region", 2), cmpConst(expr.LT, "s.amount", 100)),
		GroupBy: []string{"p.region"},
		Aggs:    []AggItem{{Func: exec.Count}},
	}
	_, ex, _ := buildPushed(t, q)
	for _, step := range []string{"ZoneSkip[amount", "ZoneSkip[region"} {
		if !strings.Contains(ex.String(), step) {
			t.Fatalf("aliased plan lacks %s...]: %s", step, ex)
		}
	}
	_, ex, err := BuildJoin(q, Options{ZoneSkip: ZoneSkipOff})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ex.String(), "ZoneSkip") {
		t.Fatalf("ZoneSkip off still attached zone filters: %s", ex)
	}
}
