package exec

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"tde/internal/delta"
	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/storage"
	"tde/internal/types"
)

// nullStr marks a NULL cell for strColumn.
const nullStr = "\x00null"

// strColumn builds a string column whose heap holds each distinct value
// once by exact bytes, so under a case-folding collation 'a' and 'A' stay
// two source tokens for the aggregate to merge. nullStr marks NULL.
func strColumn(name string, coll types.Collation, vals []string) *storage.Column {
	h := heap.New(coll)
	toks := map[string]uint64{}
	w := enc.NewWriter(enc.WriterConfig{ConvertOptimal: true,
		Sentinel: types.NullToken, HasSentinel: true})
	for _, v := range vals {
		if v == nullStr {
			w.AppendOne(types.NullToken)
			continue
		}
		tok, ok := toks[v]
		if !ok {
			tok = h.Append(v)
			toks[v] = tok
		}
		w.AppendOne(tok)
	}
	return &storage.Column{Name: name, Type: types.String, Collation: coll,
		Data: w.Finish(), Heap: h, Meta: enc.MetadataFromStats(w.Stats(), false)}
}

// scanAll scans every column of tab (which cannot fail).
func scanAll(tab *storage.Table) Operator {
	s, _ := NewScan(tab)
	return s
}

// routineOf reports an operator's routine after it ran.
func routineOf(op Operator) string {
	return op.(interface{ opStats() *OpStats }).opStats().Routine()
}

// groupCounts renders an aggregate's "keys... count" rows as a map.
func groupCounts(t *testing.T, op Operator) map[string]string {
	t.Helper()
	rows, err := CollectStrings(op)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, r := range rows {
		k := fmt.Sprint(r[:len(r)-1])
		if _, dup := out[k]; dup {
			t.Fatalf("group %s emitted twice", k)
		}
		out[k] = r[len(r)-1]
	}
	return out
}

func sameGroups(t *testing.T, label string, want, got map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d\n got  %v\n want %v", label, len(got), len(want), got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: group %s = %q, want %q", label, k, got[k], v)
		}
	}
}

// TestTokenDirectCompositeWithNulls groups by a string × integer key with
// NULLs in each position: the serial Aggregate and ParallelAggregate at
// 2 and 8 workers run the direct mode, report the same routine and
// return the groups counted here by hand.
func TestTokenDirectCompositeWithNulls(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 9000
	ss := make([]string, n)
	ks := make([]int64, n)
	want := map[string]string{}
	counts := map[string]int{}
	for i := range ss {
		ss[i] = []string{"x", "y", "z", nullStr}[rng.Intn(4)]
		ks[i] = int64(rng.Intn(6))
		if rng.Intn(7) == 0 {
			ks[i] = types.NullInteger
		}
		s, k := ss[i], types.Format(types.Integer, uint64(ks[i]))
		if s == nullStr {
			s = "NULL"
		}
		counts[fmt.Sprint([]string{s, k})]++
	}
	for k, c := range counts {
		want[k] = strconv.Itoa(c)
	}
	tab := makeTable("t", strColumn("s", types.CollateBinary, ss),
		makeIntColumn("k", types.Integer, ks))
	specs := []AggSpec{{Func: Count, Col: -1}}

	agg := NewAggregate(scanAll(tab), []int{0, 1}, specs, AggAuto)
	sameGroups(t, "serial", want, groupCounts(t, agg))
	if agg.Mode() != AggDirect || agg.st.Routine() != "token-direct" {
		t.Fatalf("serial ran %v / %q, want the direct mode as token-direct", agg.Mode(), agg.st.Routine())
	}
	for _, w := range []int{2, 8} {
		pa := NewParallelAggregate(scanAll(tab), []int{0, 1}, specs, w)
		sameGroups(t, fmt.Sprintf("workers=%d", w), want, groupCounts(t, pa))
		if r, wantR := pa.st.Routine(), fmt.Sprintf("token-direct(workers=%d)", w); r != wantR {
			t.Fatalf("workers=%d routine %q, want %q", w, r, wantR)
		}
	}
	// Integer keys alone are not token-addressed: plain "direct".
	agg = NewAggregate(scanAll(tab), []int{1}, specs, AggAuto)
	if _, err := Collect(agg); err != nil {
		t.Fatal(err)
	}
	if agg.st.Routine() != "direct" {
		t.Fatalf("integer key routine %q, want direct", agg.st.Routine())
	}
	// With encoded execution off the string key stays on hash.
	agg = NewAggregate(scanAll(tab), []int{0, 1}, specs, AggAuto)
	agg.EncodedOff = true
	sameGroups(t, "encoded off", want, groupCounts(t, agg))
	if agg.st.Routine() != "hash" {
		t.Fatalf("encoded-off routine %q, want hash", agg.st.Routine())
	}
}

// TestTokenDirectCaseFoldMergesKeys: under a case-folding collation the
// source tokens of 'a' and 'A' share one aggregation token and one id.
func TestTokenDirectCaseFoldMergesKeys(t *testing.T) {
	vals := []string{"a", "A", "b", "a", "B", "A", "b", nullStr}
	tab := makeTable("t", strColumn("s", types.CollateCaseFold, vals))
	specs := []AggSpec{{Func: Count, Col: -1}}
	for _, w := range []int{1, 2} {
		var op Operator = NewAggregate(scanAll(tab), []int{0}, specs, AggAuto)
		if w > 1 {
			op = NewParallelAggregate(scanAll(tab), []int{0}, specs, w)
		}
		// A group keeps the spelling its first row had; compare case-blind.
		got := map[string]string{}
		for k, v := range groupCounts(t, op) {
			got[strings.ToLower(k)] = v
		}
		want := map[string]string{"[a]": "4", "[b]": "3", "[null]": "1"}
		sameGroups(t, fmt.Sprintf("workers=%d", w), want, got)
		if r := routineOf(op); !strings.HasPrefix(r, "token-direct") {
			t.Fatalf("workers=%d: routine %q, want token-direct", w, r)
		}
	}
}

// TestDirectBoundProductFallsBackToHash: two string keys whose bounds
// multiply past tokenDirectLimit take the hash mode; integer keys keep
// the wider directLimit.
func TestDirectBoundProductFallsBackToHash(t *testing.T) {
	n := 200 // (200+1) × (200+1) slots > 2^15
	a := make([]string, n)
	b := make([]string, n)
	for i := range a {
		a[i] = fmt.Sprintf("a%03d", i)
		b[i] = fmt.Sprintf("b%03d", (i*7)%n)
	}
	tab := makeTable("t", strColumn("a", types.CollateBinary, a), strColumn("b", types.CollateBinary, b))
	in := scanAll(tab).Schema()
	if _, size, _ := keyDomains(in, []int{0}, false); size != n+1 {
		t.Fatalf("one string key: table size %d, want %d", size, n+1)
	}
	if _, size, _ := keyDomains(in, []int{0, 1}, false); size != 0 {
		t.Fatalf("two string keys: table size %d, want 0 (past the limit)", size)
	}
	agg := NewAggregate(scanAll(tab), []int{0, 1}, []AggSpec{{Func: Count, Col: -1}}, AggAuto)
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n || agg.Mode() != AggHash || agg.st.Routine() != "hash" {
		t.Fatalf("%d groups, mode %v routine %q; want %d groups on hash", len(rows), agg.Mode(), agg.st.Routine(), n)
	}
	ints := makeTable("t", makeIntColumn("k", types.Integer, []int64{0, 40000, 7}))
	if _, size, _ := keyDomains(scanAll(ints).Schema(), []int{0}, false); size != 40001 {
		t.Fatalf("integer key span 40001: table size %d", size)
	}
}

// TestTokenDirectDegradesOnForeignHeap: a DeltaScan's insert blocks carry
// a second heap. Strings it shares with the schema heap keep the direct
// mode; once it brings more distinct strings than the schema heap holds,
// the aggregate moves to hash mid-stream and the answer stays right. Ids
// are assigned per core, first seen first, so the insert block alone
// holds more distinct strings than the bound: whichever worker pulls it
// degrades, even one that saw no base block.
func TestTokenDirectDegradesOnForeignHeap(t *testing.T) {
	var base []string
	for i := 0; i < 3000; i++ {
		base = append(base, []string{"p", "q", "r"}[i%3])
	}
	tab := makeTable("t", strColumn("s", types.CollateBinary, base))
	ins := func(vals ...string) []delta.Op {
		var ops []delta.Op
		for _, v := range vals {
			ops = append(ops, delta.Op{Table: "t", Kind: delta.OpInsert, Row: []delta.Value{delta.String(v)}})
		}
		return ops
	}
	for _, tc := range []struct {
		name    string
		ops     []delta.Op
		routine string
		want    map[string]string
	}{
		{"known strings", ins("q", "r", "r"), "token-direct",
			map[string]string{"[p]": "1000", "[q]": "1001", "[r]": "1002"}},
		{"new strings", ins("q", "new1", "new2", "new3", "new1"), "hash",
			map[string]string{"[p]": "1000", "[q]": "1001", "[r]": "1000", "[new1]": "2", "[new2]": "1", "[new3]": "1"}},
	} {
		for _, w := range []int{1, 2} {
			scan, err := NewDeltaScan(deltaView(t, tab, tc.ops), false)
			if err != nil {
				t.Fatal(err)
			}
			var op Operator
			var st func() string
			if w == 1 {
				a := NewAggregate(scan, []int{0}, []AggSpec{{Func: Count, Col: -1}}, AggAuto)
				op, st = a, func() string { return a.st.Routine() }
			} else {
				p := NewParallelAggregate(scan, []int{0}, []AggSpec{{Func: Count, Col: -1}}, w)
				op, st = p, func() string { return p.st.Routine() }
			}
			label := fmt.Sprintf("%s workers=%d", tc.name, w)
			sameGroups(t, label, tc.want, groupCounts(t, op))
			routine := tc.routine
			if w > 1 {
				routine = fmt.Sprintf("%s(workers=%d)", routine, w)
			}
			// Only the worker that pulls the insert block degrades; the
			// operator then reports hash.
			if st() != routine {
				t.Fatalf("%s: routine %q, want %q", label, st(), routine)
			}
		}
	}
}

// TestTokenDirectKeepsGroupingAfterEviction: a budgeted direct-mode
// aggregate evicts its groups (fresh heaps, fresh memos) several times
// and still matches the unbudgeted answer.
func TestTokenDirectKeepsGroupingAfterEviction(t *testing.T) {
	tab := aggTestTable(20_000, 5)
	specs := []AggSpec{{Func: Count, Col: -1}, {Func: CountD, Col: 5}, {Func: Min, Col: 5}, {Func: Max, Col: 5}}
	want, err := CollectStrings(NewAggregate(scanAll(tab), []int{0, 1}, specs, AggHash))
	if err != nil {
		t.Fatal(err)
	}
	sortRows(want)
	for _, w := range []int{1, 2} {
		qc := NewQueryCtxSpill(nil, 96<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
		var op Operator
		var st func() *OpStats
		if w == 1 {
			a := NewAggregate(scanAll(tab), []int{0, 1}, specs, AggAuto)
			op, st = a, func() *OpStats { return a.st }
		} else {
			p := NewParallelAggregate(scanAll(tab), []int{0, 1}, specs, w)
			op, st = p, func() *OpStats { return p.st }
		}
		got, err := CollectStringsCtx(qc, op)
		if err != nil {
			t.Fatal(err)
		}
		sortRows(got)
		rowsEqual(t, want, got, fmt.Sprintf("budgeted workers=%d", w))
		if st().Spill.Spills == 0 {
			t.Fatalf("workers=%d: the budget never forced an eviction", w)
		}
		if r := st().Routine(); r != "token-direct" && r != "token-direct(workers=2)" {
			t.Fatalf("workers=%d: routine %q, want token-direct", w, r)
		}
	}
}

// TestOrderedSpoolRebuildsMemo: the ordered mode's spool also replaces
// the aggregation heaps mid-stream; the memos must follow.
func TestOrderedSpoolRebuildsMemo(t *testing.T) {
	n := 12000
	ks := make([]string, n)
	vs := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%05d", i/4) // sorted: the ordered mode applies
		vs[i] = fmt.Sprintf("v%d", (i*7)%13)
	}
	tab := makeTable("t", strColumn("k", types.CollateBinary, ks), strColumn("v", types.CollateBinary, vs))
	specs := []AggSpec{{Func: Count, Col: -1}, {Func: Min, Col: 1}, {Func: Max, Col: 1}, {Func: CountD, Col: 1}}
	want, err := CollectStrings(NewAggregate(scanAll(tab), []int{0}, specs, AggHash))
	if err != nil {
		t.Fatal(err)
	}
	qc := NewQueryCtxSpill(nil, 64<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
	agg := NewAggregate(scanAll(tab), []int{0}, specs, AggAuto)
	got, err := CollectStringsCtx(qc, agg)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Mode() != AggOrdered || agg.st.Spill.Spills == 0 {
		t.Fatalf("mode %v with %d spills; want the ordered mode spooling", agg.Mode(), agg.st.Spill.Spills)
	}
	sortRows(want)
	sortRows(got)
	rowsEqual(t, want, got, "ordered spool")
}

// TestMemoChargedToBudget: a string key whose schema heap is large but
// whose rows use three strings. The memo slice is then the biggest piece
// of the aggregate's state, so an uncharged memo leaves the peak below
// it. Under a budget too small for the memo the aggregate skips it and
// still groups by token-direct.
func TestMemoChargedToBudget(t *testing.T) {
	vals := make([]string, 6000)
	for i := range vals {
		vals[i] = []string{"x", "y", nullStr, "z"}[i%4]
	}
	col := strColumn("s", types.CollateBinary, vals)
	for i := 0; i < 8000; i++ {
		col.Heap.Append(fmt.Sprintf("pad%05d", i))
	}
	tab := makeTable("t", col)
	memoBytes := int64(col.Heap.Size()>>2+1) * memoEntryBytes
	directBytes := int64(col.Heap.Len()+1) * 8
	specs := []AggSpec{{Func: Count, Col: -1}}
	want := map[string]string{"[x]": "1500", "[y]": "1500", "[z]": "1500", "[NULL]": "1500"}
	for _, w := range []int{1, 2} {
		run := func(budget int64) *QueryCtx {
			t.Helper()
			var op Operator = NewAggregate(scanAll(tab), []int{0}, specs, AggAuto)
			if w > 1 {
				op = NewParallelAggregate(scanAll(tab), []int{0}, specs, w)
			}
			qc := NewQueryCtx(nil, budget)
			rows, err := CollectStringsCtx(qc, op)
			if err != nil {
				t.Fatalf("workers=%d budget=%d: %v", w, budget, err)
			}
			got := map[string]string{}
			for _, r := range rows {
				got[fmt.Sprint(r[:1])] = r[1]
			}
			sameGroups(t, fmt.Sprintf("workers=%d budget=%d", w, budget), want, got)
			if r := routineOf(op); !strings.HasPrefix(r, "token-direct") {
				t.Fatalf("workers=%d budget=%d: routine %q, want token-direct", w, budget, r)
			}
			if u := qc.Used(); u != 0 {
				t.Fatalf("workers=%d budget=%d: %d bytes still charged after Close", w, budget, u)
			}
			return qc
		}
		if p := run(0).Peak(); p < memoBytes+int64(w)*directBytes {
			t.Fatalf("workers=%d: peak %d bytes; the memo alone is %d beside %d of direct tables",
				w, p, memoBytes, int64(w)*directBytes)
		}
		run(int64(w)*directBytes + 16<<10)
	}
}
