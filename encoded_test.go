package tde

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tde/internal/plan"
)

// encodedTestDB builds a table shaped for compressed execution: r is a
// sorted small-domain column (run-length encoded at import), g is a
// small-domain random column dictionary-compressed explicitly, v is a
// plain real payload.
func encodedTestDB(t testing.TB) *Database {
	t.Helper()
	db := New()
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d.%02d\n", i/64, (i*7)%20, i%97, i%100)
	}
	opt := DefaultImportOptions()
	opt.Schema = []string{"r:int", "g:int", "v:real"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("m", []byte(sb.String()), opt); err != nil {
		t.Fatal(err)
	}
	if err := db.CompressColumn("m", "g"); err != nil {
		t.Fatalf("dictionary-compressing g: %v", err)
	}
	return db
}

// scanPlanSerial disables the rewrite plans so the scan-path encoded
// routines (rle-*, dict-filter) are what executes.
func scanPlanSerial(enc int) plan.Options {
	return plan.Options{ParallelWorkers: -1, NoDictPlan: true, NoIndexPlan: true, EncodedExec: enc}
}

func routineOf(t *testing.T, res *Result, kind string) string {
	t.Helper()
	for _, op := range res.Stats().Operators {
		if op.Kind == kind {
			return op.Routine
		}
	}
	t.Fatalf("no %s operator in stats", kind)
	return ""
}

// TestEncodedRoutinesChosen pins the routine selection itself: the
// encoded routines engage on dict/RLE columns and fall back when
// encoded execution is off or the column is plain.
func TestEncodedRoutinesChosen(t *testing.T) {
	db := encodedTestDB(t)
	ctx := context.Background()

	// RLE aggregate: single-column scan of an RLE column emits runs and
	// the aggregate folds them run-at-a-time.
	res, err := db.QueryContext(ctx, "SELECT SUM(r) FROM m", QueryOptions{Plan: scanPlanSerial(plan.EncodedAuto)})
	if err != nil {
		t.Fatal(err)
	}
	if r := routineOf(t, res, "Scan"); !strings.Contains(r, "(runs)") {
		t.Fatalf("scan routine %q does not emit runs", r)
	}
	if r := routineOf(t, res, "Aggregate"); r != "rle-sum" {
		t.Fatalf("aggregate routine %q, want rle-sum", r)
	}

	// Dictionary filter plus token-direct grouping.
	res, err = db.QueryContext(ctx, "SELECT g, SUM(v) FROM m WHERE g = 3 GROUP BY g",
		QueryOptions{Plan: scanPlanSerial(plan.EncodedAuto)})
	if err != nil {
		t.Fatal(err)
	}
	if r := routineOf(t, res, "Select"); r != "dict-filter" {
		t.Fatalf("select routine %q, want dict-filter", r)
	}
	if r := routineOf(t, res, "Aggregate"); r != "token-direct" {
		t.Fatalf("aggregate routine %q, want token-direct", r)
	}

	// Escape hatch: EncodedExec off keeps everything on the decoded path.
	res, err = db.QueryContext(ctx, "SELECT SUM(r) FROM m", QueryOptions{Plan: scanPlanSerial(plan.EncodedOff)})
	if err != nil {
		t.Fatal(err)
	}
	if r := routineOf(t, res, "Scan"); strings.Contains(r, "(runs)") {
		t.Fatalf("scan routine %q emits runs with encoded execution off", r)
	}
	if r := routineOf(t, res, "Aggregate"); strings.Contains(r, "rle") {
		t.Fatalf("aggregate routine %q uses an encoded routine with encoded execution off", r)
	}

	// Plain column: no encoded routine applies, with no knob needed.
	res, err = db.QueryContext(ctx, "SELECT SUM(v) FROM m WHERE v > 50",
		QueryOptions{Plan: scanPlanSerial(plan.EncodedAuto)})
	if err != nil {
		t.Fatal(err)
	}
	if r := routineOf(t, res, "Select"); r != "" {
		t.Fatalf("select routine %q on a plain real column, want the default row path", r)
	}
}

// TestQ1ShapeTokenDirect: the TPC-H Q1 shape — two string keys — groups
// token-direct serially and in parallel, and stays on hash with encoded
// execution off, with one answer across all four.
func TestQ1ShapeTokenDirect(t *testing.T) {
	db := New()
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, "%s,%s,%d,%d.%02d,1998-%02d-%02d\n",
			[]string{"A", "N", "R"}[i*7%3], []string{"O", "F"}[i*11%2], i%50, i%1000, i%100, 1+i%12, 1+i%28)
	}
	opt := DefaultImportOptions()
	opt.Schema = []string{"flag:str", "status:str", "qty:int", "price:real", "shipdate:date"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("li", []byte(sb.String()), opt); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT flag, status, SUM(qty), SUM(price), AVG(price), COUNT(*) FROM li
		WHERE shipdate <= DATE '1998-10-01' GROUP BY flag, status ORDER BY flag, status`
	var want *Result
	for _, tc := range []struct {
		workers, enc  int
		kind, routine string
	}{
		{-1, plan.EncodedAuto, "Aggregate", "token-direct"},
		{2, plan.EncodedAuto, "ParallelAggregate", "token-direct(workers=2)"},
		{-1, plan.EncodedOff, "Aggregate", "hash"},
		{2, plan.EncodedOff, "ParallelAggregate", "hash(workers=2)"},
	} {
		res, err := db.QueryContext(context.Background(), sql,
			QueryOptions{Plan: plan.Options{ParallelWorkers: tc.workers, EncodedExec: tc.enc}})
		if err != nil {
			t.Fatal(err)
		}
		if r := routineOf(t, res, tc.kind); r != tc.routine {
			t.Fatalf("workers=%d encoded=%d: %s routine %q, want %q\n%s",
				tc.workers, tc.enc, tc.kind, r, tc.routine, res.ExplainAnalyze())
		}
		if want == nil {
			want = res
		} else if !rowsMatch(sortedRows(want.Rows), sortedRows(res.Rows)) {
			t.Fatalf("workers=%d encoded=%d: %v, want %v", tc.workers, tc.enc, res.Rows, want.Rows)
		}
	}
}

// TestExplainAnalyzeEncodedGolden pins the EXPLAIN ANALYZE rendering of
// the encoded routines (routine=rle-sum, routine=dict-filter,
// token-direct) and of the decoded fallback. Regenerate with
// `go test -run EncodedGolden -update-golden .`.
func TestExplainAnalyzeEncodedGolden(t *testing.T) {
	db := encodedTestDB(t)
	cases := []struct {
		name string
		sql  string
		enc  int
	}{
		{name: "encoded-rle-sum", sql: "SELECT SUM(r) FROM m", enc: plan.EncodedAuto},
		{name: "encoded-dict-filter", sql: "SELECT g, SUM(v) FROM m WHERE g = 3 GROUP BY g", enc: plan.EncodedAuto},
		{name: "encoded-off", sql: "SELECT SUM(r) FROM m", enc: plan.EncodedOff},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := db.QueryContext(context.Background(), tc.sql,
				QueryOptions{Plan: scanPlanSerial(tc.enc)})
			if err != nil {
				t.Fatal(err)
			}
			got := redactCounters(res.ExplainAnalyze())
			path := filepath.Join("testdata", "analyze", tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN ANALYZE shape changed.\n--- want\n%s--- got\n%s", want, got)
			}
		})
	}
}

// TestEncodedMatchesDecoded is a direct differential check on the
// fixture: encoded and decoded execution agree on filters, aggregates
// and grouping over the dict/RLE columns, serial and parallel.
func TestEncodedMatchesDecoded(t *testing.T) {
	db := encodedTestDB(t)
	queries := []string{
		"SELECT SUM(r) FROM m",
		"SELECT COUNT(r), MIN(r), MAX(r), AVG(r) FROM m",
		"SELECT g, COUNT(*) FROM m GROUP BY g",
		"SELECT g, SUM(v), MEDIAN(v) FROM m WHERE g >= 7 GROUP BY g",
		"SELECT r, COUNT(*) FROM m WHERE r < 100 GROUP BY r",
		"SELECT SUM(v) FROM m WHERE g = 3 AND v > 10",
	}
	for _, sql := range queries {
		want, err := db.QueryWithOptions(sql, scanPlanSerial(plan.EncodedOff))
		if err != nil {
			t.Fatalf("%s (decoded): %v", sql, err)
		}
		for _, workers := range []int{-1, 4} {
			opt := scanPlanSerial(plan.ForceEncodedExec)
			opt.ParallelWorkers = workers
			got, err := db.QueryWithOptions(sql, opt)
			if err != nil {
				t.Fatalf("%s (encoded, workers=%d): %v", sql, workers, err)
			}
			if !rowsMatch(sortedRows(want.Rows), sortedRows(got.Rows)) {
				t.Fatalf("%s: encoded (workers=%d) diverges from decoded:\n%v\n%v",
					sql, workers, want.Rows, got.Rows)
			}
		}
	}
}

// TestJoinEncodedOff: EncodedExec off reaches every filter of a join
// plan — the ones moved below the join included — so the decoded oracle
// arm of the differential sweeps never runs an encoded routine.
func TestJoinEncodedOff(t *testing.T) {
	db := encodedTestDB(t)
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&sb, "%d,name-%d\n", i, i%5)
	}
	opt := DefaultImportOptions()
	opt.Schema = []string{"gk:int", "name:str"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("gd", []byte(sb.String()), opt); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT name, SUM(v) FROM m JOIN gd ON g = gk WHERE g = 3 GROUP BY name"
	ctx := context.Background()
	on, err := db.QueryContext(ctx, sql, QueryOptions{Plan: scanPlanSerial(plan.EncodedAuto)})
	if err != nil {
		t.Fatal(err)
	}
	if r := routineOf(t, on, "Select"); r != "dict-filter" {
		t.Fatalf("join filter routine %q with encoded execution on, want dict-filter:\n%s",
			r, on.ExplainAnalyze())
	}
	off, err := db.QueryContext(ctx, sql, QueryOptions{Plan: scanPlanSerial(plan.EncodedOff)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(off.Plan, "EncodedExec[off]") {
		t.Fatalf("join plan does not record EncodedExec[off]: %s", off.Plan)
	}
	for _, op := range off.Stats().Operators {
		for _, r := range []string{"dict-filter", "rle-", "token-direct", "(runs)"} {
			if strings.Contains(op.Routine, r) {
				t.Fatalf("%s #%d ran %q with encoded execution off:\n%s",
					op.Kind, op.ID, op.Routine, off.ExplainAnalyze())
			}
		}
	}
	if !rowsMatch(sortedRows(on.Rows), sortedRows(off.Rows)) {
		t.Fatalf("encoded join answer %v != decoded %v", on.Rows, off.Rows)
	}
}

// TestDeltaScanStaysDecoded is the regression test for the write-path
// interaction: a dirty table (live delta) must take the decoded
// DeltaScan path — run emission reasons from the base table's stored
// encodings, which no longer describe the visible rows — and after
// Compact the encoded path must give the same answer.
func TestDeltaScanStaysDecoded(t *testing.T) {
	db := encodedTestDB(t)
	ctx := context.Background()
	const sql = "SELECT SUM(r) FROM m"

	if _, err := db.Exec("INSERT INTO m (r, g, v) VALUES (1000, 3, 1.5)"); err != nil {
		t.Fatal(err)
	}
	dirty, err := db.QueryContext(ctx, sql, QueryOptions{Plan: scanPlanSerial(plan.ForceEncodedExec)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dirty.Plan, "DeltaScan") {
		t.Fatalf("dirty table did not plan a DeltaScan: %s", dirty.Plan)
	}
	for _, op := range dirty.Stats().Operators {
		if strings.Contains(op.Routine, "(runs)") || strings.Contains(op.Routine, "rle-") {
			t.Fatalf("dirty table used encoded routine %q on operator %s", op.Routine, op.Kind)
		}
	}
	decoded, err := db.QueryContext(ctx, sql, QueryOptions{Plan: scanPlanSerial(plan.EncodedOff)})
	if err != nil {
		t.Fatal(err)
	}
	if !rowsMatch(sortedRows(dirty.Rows), sortedRows(decoded.Rows)) {
		t.Fatalf("dirty encoded-path result %v != decoded %v", dirty.Rows, decoded.Rows)
	}

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	clean, err := db.QueryContext(ctx, sql, QueryOptions{Plan: scanPlanSerial(plan.ForceEncodedExec)})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.Plan, "DeltaScan") {
		t.Fatalf("compacted table still plans a DeltaScan: %s", clean.Plan)
	}
	if !rowsMatch(sortedRows(clean.Rows), sortedRows(dirty.Rows)) {
		t.Fatalf("post-Compact encoded result %v != pre-Compact %v", clean.Rows, dirty.Rows)
	}
}
