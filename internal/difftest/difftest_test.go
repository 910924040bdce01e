package difftest

import (
	"flag"
	"math/rand"
	"strings"
	"testing"
)

// -long runs the full sweep (more queries over bigger tables); the
// default stays bounded for the regular test suite while still clearing
// 500 differential comparisons.
var long = flag.Bool("long", false, "run the full differential sweep")

// TestDifferentialQueries is the harness entry point: every randomized
// query must give row-set-identical results under serial execution and
// the whole workers x routing matrix.
func TestDifferentialQueries(t *testing.T) {
	sf, flightRows, queries := 0.003, 6000, 90
	if *long {
		// Sized so the sweep finishes within go test's default 10m
		// package timeout even on a single core; CI passes -timeout
		// explicitly for extra headroom on slow runners.
		sf, flightRows, queries = 0.01, 20000, 300
	}
	db, err := BuildDatabase(sf, flightRows, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1, queries)
	rep, err := Run(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Comparisons < 500 {
		t.Fatalf("only %d comparisons ran; the harness must cover at least 500", rep.Comparisons)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("mismatch: %s", m)
	}
	t.Logf("%d queries, %d comparisons, %d mismatches",
		rep.Queries, rep.Comparisons, len(rep.Mismatches))
}

// TestDifferentialSpill reruns the differential sweep under memory
// budgets tight enough to force spill-to-disk degradation: every variant
// — serial and parallel alike — must still be row-set-identical to the
// unbudgeted serial oracle, and at least one query must actually have
// spilled (otherwise the budget was too loose to test anything).
func TestDifferentialSpill(t *testing.T) {
	queries := 25
	if *long {
		queries = 80
	}
	db, err := BuildDatabase(0.003, 6000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{256 << 10, 1 << 20} {
		cfg := DefaultConfig(11, queries)
		cfg.MemoryBudget = budget
		cfg.SpillBudget = 1 << 30
		rep, err := Run(db, cfg)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		for _, m := range rep.Mismatches {
			t.Errorf("budget %d: mismatch: %s", budget, m)
		}
		if rep.Spilled == 0 {
			t.Errorf("budget %d: no query spilled; the budget is too loose to exercise degradation", budget)
		}
		t.Logf("budget %d: %d queries, %d comparisons, %d spilled, %d mismatches",
			budget, rep.Queries, rep.Comparisons, rep.Spilled, len(rep.Mismatches))
	}
}

// TestGeneratorShape spot-checks the grammar: every draw parses (the
// oracle in Run would otherwise fail late), stays on known tables, and
// every LIMIT is preceded by an ORDER BY so the cut is deterministic. It
// also demands every join WHERE shape on the planner's filter move-around
// boundary, and the wide join that keeps the spill sweep spilling.
func TestGeneratorShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := map[string]bool{}
	for i := 0; i < 500; i++ {
		q := randomQuery(rng)
		if !strings.HasPrefix(q, "SELECT ") {
			t.Fatalf("bad query: %s", q)
		}
		if strings.Contains(q, " LIMIT ") && !strings.Contains(q, " ORDER BY ") {
			t.Fatalf("LIMIT without total order is nondeterministic: %s", q)
		}
		where := ""
		if i := strings.Index(q, " WHERE "); i >= 0 {
			where = q[i:]
		}
		join := strings.Contains(q, " JOIN ")
		left := strings.Contains(q, " LEFT JOIN ")
		for shape, ok := range map[string]bool{
			"join":              join,
			"group":             strings.Contains(q, " GROUP BY "),
			"topn":              strings.Contains(q, " LIMIT "),
			"join fact AND dim": join && strings.Contains(where, "l_") && strings.Contains(where, " AND o_"),
			"join cross-side":   join && strings.Contains(where, "l_shipdate > o_orderdate"),
			"join OR":           join && strings.Contains(where, " OR "),
			"left join IS NULL": left && strings.Contains(where, "IS NULL"),
			"wide join":         strings.Contains(q, "GROUP BY o_comment"),
		} {
			shapes[shape] = shapes[shape] || ok
		}
	}
	for _, shape := range []string{"join", "group", "topn", "join fact AND dim",
		"join cross-side", "join OR", "left join IS NULL", "wide join"} {
		if !shapes[shape] {
			t.Errorf("generator never produced a %s query", shape)
		}
	}
}

// TestDifferentialSkipping is the zone-pruning oracle sweep: every query
// runs with block skipping forced off (the oracle decodes everything)
// and forced on across the worker matrix, over tables with dirty write
// overlays and NULL-heavy/all-NULL columns — the configurations where a
// stale or over-eager zone map silently drops rows. The sweep demands
// that pruning actually fired; a run with zero skipped blocks proves
// nothing.
func TestDifferentialSkipping(t *testing.T) {
	sf, flightRows, sensorRows, queries := 0.003, 6000, 40000, 60
	if *long {
		sf, flightRows, sensorRows, queries = 0.01, 20000, 120000, 200
	}
	db, err := BuildSkippingDatabase(sf, flightRows, sensorRows, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(13, queries)
	rep, err := RunSkipping(db, cfg, sensorRows)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("mismatch: %s", m)
	}
	if rep.SkipHits == 0 {
		t.Fatal("no variant query skipped a block; the sweep exercised nothing")
	}
	t.Logf("%d queries, %d comparisons, %d skip hits, %d mismatches",
		rep.Queries, rep.Comparisons, rep.SkipHits, len(rep.Mismatches))
}

// TestDifferentialEncoded is the encoded-vs-decoded oracle sweep: every
// randomized query runs with compressed execution forced off (the
// decoded oracle) and forced on (across workers and with the plan
// rewrites disabled), demanding row-set-identical results. The sweep
// also demands that encoded routines actually fired — a sweep that never
// touched dict-filter/rle-*/token-direct would prove nothing.
func TestDifferentialEncoded(t *testing.T) {
	sf, flightRows, queries := 0.003, 6000, 60
	if *long {
		sf, flightRows, queries = 0.01, 20000, 200
	}
	db, err := BuildEncodedDatabase(sf, flightRows, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(5, queries)
	rep, err := RunEncoded(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("mismatch: %s", m)
	}
	if rep.EncodedHits == 0 {
		t.Fatal("no variant query used an encoded routine; the sweep exercised nothing")
	}
	if rep.StringKeyDirect == 0 || rep.CompositeKeyDirect == 0 {
		t.Fatalf("token-direct grouping ran on %d string-keyed and %d composite-keyed variant queries; the sweep must exercise both",
			rep.StringKeyDirect, rep.CompositeKeyDirect)
	}
	t.Logf("%d queries, %d comparisons, %d encoded-routine hits (token-direct: %d string-keyed, %d composite-keyed), %d mismatches",
		rep.Queries, rep.Comparisons, rep.EncodedHits, rep.StringKeyDirect, rep.CompositeKeyDirect, len(rep.Mismatches))
}
