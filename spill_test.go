package tde

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"tde/internal/iofault"
	"tde/internal/plan"
	"tde/internal/spill"
)

// spillTestDB builds a database sized so the spill tests' queries blow
// small memory budgets: a 20k-row fact table with a high-cardinality
// group key and a 12k-row dimension joined on it.
func spillTestDB(t testing.TB) *Database {
	t.Helper()
	db := New()
	var fact strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&fact, "%d,%d.%02d,name-%d\n", i%6000, i%97, i%100, i%factStrings)
	}
	opt := DefaultImportOptions()
	opt.Schema = []string{"k:int", "v:real", "s:str"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("t", []byte(fact.String()), opt); err != nil {
		t.Fatal(err)
	}
	var dim strings.Builder
	for i := 0; i < 12000; i++ {
		fmt.Fprintf(&dim, "%d,dim-%d\n", i, i%1000)
	}
	opt = DefaultImportOptions()
	opt.Schema = []string{"dkey:int", "dval:str"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("d", []byte(dim.String()), opt); err != nil {
		t.Fatal(err)
	}
	return db
}

const factStrings = 400 // distinct strings in the fact table

// sortedRows canonicalizes a result for order-insensitive comparison.
func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x00")
	}
	sort.Strings(out)
	return out
}

// runSpillOracle compares sql under budget+spill (workers 1, 2, 8)
// against the unbudgeted serial oracle and requires an actual spill.
func runSpillOracle(t *testing.T, db *Database, sql string, mem int64) {
	t.Helper()
	oracle, err := db.QueryContext(context.Background(), sql, QueryOptions{
		Plan: planWorkers(-1)})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	want := sortedRows(oracle.Rows)
	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		res, err := db.QueryContext(context.Background(), sql, QueryOptions{
			MemoryBudget: mem,
			SpillBudget:  1 << 30,
			SpillDir:     dir,
			Plan:         planWorkers(workers),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := sortedRows(res.Rows); !rowsMatch(want, got) {
			t.Fatalf("workers=%d: %d rows differ from oracle's %d\nfirst got: %.200s",
				workers, len(got), len(want), strings.Join(got[:min(3, len(got))], " | "))
		}
		if !res.Stats().Spilled() || res.Stats().SpillPeak == 0 {
			t.Fatalf("workers=%d: query under %d-byte budget did not spill (stats %+v)",
				workers, mem, res.Stats())
		}
		if !strings.Contains(res.Plan, "Spill[") {
			t.Fatalf("workers=%d: plan lacks the spill summary: %s", workers, res.Plan)
		}
		assertNoSpillFiles(t, dir)
	}
}

func planWorkers(n int) plan.Options {
	return plan.Options{ParallelWorkers: n}
}

// rowsMatch compares two canonical row sets cell-wise, tolerating the
// tiny float divergence that re-associating SUM/AVG across spill
// partitions may introduce — exactly the tolerance the differential
// harness grants parallel plans.
func rowsMatch(want, got []string) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i] == got[i] {
			continue
		}
		wc := strings.Split(want[i], "\x00")
		gc := strings.Split(got[i], "\x00")
		if len(wc) != len(gc) {
			return false
		}
		for j := range wc {
			if !cellsClose(wc[j], gc[j]) {
				return false
			}
		}
	}
	return true
}

func cellsClose(a, b string) bool {
	if a == b {
		return true
	}
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA != nil || errB != nil {
		return false
	}
	diff := math.Abs(fa - fb)
	scale := math.Max(1, math.Max(math.Abs(fa), math.Abs(fb)))
	return diff <= 1e-9*scale
}

// assertNoSpillFiles fails if any spill artifact survived under dir.
func assertNoSpillFiles(t testing.TB, dir string) {
	t.Helper()
	var left []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && path != dir {
			left = append(left, path)
		}
		return nil
	})
	if len(left) > 0 {
		t.Fatalf("spill artifacts left behind: %v", left)
	}
}

func TestSpillAggregationMatchesOracle(t *testing.T) {
	db := spillTestDB(t)
	runSpillOracle(t, db,
		"SELECT k, COUNT(*), SUM(v), MIN(s), MAX(s) FROM t GROUP BY k", 128<<10)
}

// TestSpillSingleGroupState: one group's COUNTD and MEDIAN state alone
// outgrows the budget — no re-partitioning by key can split it — so the
// merge fallback sorts the values externally. Even and odd MEDIAN
// counts, integer and string COUNTD.
func TestSpillSingleGroupState(t *testing.T) {
	db := spillTestDB(t)
	runSpillOracle(t, db, "SELECT COUNTD(k), COUNTD(s), MEDIAN(v), MEDIAN(k), COUNT(*) FROM t", 256<<10)
	runSpillOracle(t, db, "SELECT COUNTD(s), MEDIAN(v) FROM t WHERE k <> 17", 256<<10)
}

func TestSpillJoinMatchesOracle(t *testing.T) {
	db := spillTestDB(t)
	runSpillOracle(t, db,
		"SELECT dval, COUNT(*), SUM(v) FROM t JOIN d ON k = dkey GROUP BY dval", 96<<10)
}

func TestSpillSortMatchesOracle(t *testing.T) {
	db := spillTestDB(t)
	runSpillOracle(t, db, "SELECT s, v, k FROM t ORDER BY s, v, k", 128<<10)
}

// TestSpillBudgetZeroFailsFast pins the opt-in contract: without a
// SpillBudget the same queries fail with ErrBudgetExceeded instead of
// degrading.
func TestSpillBudgetZeroFailsFast(t *testing.T) {
	db := spillTestDB(t)
	for _, sql := range []string{
		"SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k",
		"SELECT dval, COUNT(*) FROM t JOIN d ON k = dkey GROUP BY dval",
		"SELECT s, v FROM t ORDER BY s, v",
	} {
		_, err := db.QueryContext(context.Background(), sql, QueryOptions{
			MemoryBudget: 64 << 10,
		})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: want ErrBudgetExceeded, got %v", sql, err)
		}
	}
}

// TestSpillDiskBudgetExceeded: a spill budget too small for the state
// being evicted must surface as a budget error after the degradation
// ladder is exhausted — never a panic or a wrong answer.
func TestSpillDiskBudgetExceeded(t *testing.T) {
	db := spillTestDB(t)
	dir := t.TempDir()
	_, err := db.QueryContext(context.Background(),
		"SELECT k, COUNT(*), SUM(v), MIN(s) FROM t GROUP BY k", QueryOptions{
			MemoryBudget: 64 << 10,
			SpillBudget:  2 << 10, // room for almost nothing
			SpillDir:     dir,
		})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want a budget error, got %v", err)
	}
	assertNoSpillFiles(t, dir)
}

// spillFaultCase runs one budgeted query with a scripted spill-I/O fault
// and checks the outcome is a typed error or a correct answer — and that
// no spill file survives either way.
func spillFaultCase(t *testing.T, name string, fault iofault.Fault, wantErr func(error) bool) {
	t.Run(name, func(t *testing.T) {
		db := spillTestDB(t)
		dir := t.TempDir()
		inj := iofault.NewInjector(nil)
		inj.Script(fault)
		res, err := db.QueryContext(context.Background(),
			"SELECT k, COUNT(*), SUM(v), MIN(s) FROM t GROUP BY k", QueryOptions{
				MemoryBudget: 128 << 10,
				SpillBudget:  1 << 30,
				SpillDir:     dir,
				SpillFS:      inj,
			})
		if err != nil {
			var ie *InternalError
			if errors.As(err, &ie) {
				t.Fatalf("fault escaped as a contained panic: %v", err)
			}
			if wantErr != nil && !wantErr(err) {
				t.Fatalf("fault surfaced as the wrong error type: %v", err)
			}
		} else {
			// The ENOSPC ladder may absorb a transient fault; the answer
			// must then be correct.
			oracle, oerr := db.QueryContext(context.Background(),
				"SELECT k, COUNT(*), SUM(v), MIN(s) FROM t GROUP BY k", QueryOptions{})
			if oerr != nil {
				t.Fatal(oerr)
			}
			if !rowsMatch(sortedRows(oracle.Rows), sortedRows(res.Rows)) {
				t.Fatal("query absorbed an injected fault but returned a wrong answer")
			}
		}
		assertNoSpillFiles(t, dir)
	})
}

func TestSpillFaultInjection(t *testing.T) {
	isSpillErr := func(err error) bool { return errors.Is(err, spill.ErrSpill) }
	spillFaultCase(t, "torn-write",
		iofault.Fault{Op: iofault.OpWrite, AtCount: 3, Tear: 10, Once: true}, isSpillErr)
	spillFaultCase(t, "enospc-hard",
		iofault.Fault{Op: iofault.OpWrite, AtCount: 2, Err: syscall.ENOSPC}, isSpillErr)
	spillFaultCase(t, "enospc-once",
		iofault.Fault{Op: iofault.OpWrite, AtCount: 2, Err: syscall.ENOSPC, Once: true}, isSpillErr)
	spillFaultCase(t, "bit-flip", iofault.Fault{
		Op: iofault.OpRead, AtCount: 2, FlipByteOffset: 40, FlipBitMask: 0x10, Once: true,
	}, func(err error) bool { return errors.Is(err, ErrCorrupt) })
}

// TestSpillCancellationCleanup: a query cancelled mid-spill must remove
// every spill artifact on its way out.
func TestSpillCancellationCleanup(t *testing.T) {
	db := spillTestDB(t)
	dir := t.TempDir()
	_, err := db.QueryContext(context.Background(),
		"SELECT dval, COUNT(*), SUM(v), MIN(s) FROM t JOIN d ON k = dkey GROUP BY dval",
		QueryOptions{
			MemoryBudget: 96 << 10,
			SpillBudget:  1 << 30,
			SpillDir:     dir,
			Timeout:      3 * time.Millisecond,
		})
	if err == nil {
		t.Skip("query finished before the deadline; nothing to observe")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	assertNoSpillFiles(t, dir)
}

// TestSpillOrphanSweep fabricates crashed-process leftovers and checks
// Open removes exactly the stale tde-spill-* entries.
func TestSpillOrphanSweep(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)

	stale := filepath.Join(tmp, spill.Prefix+"dead1")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "part-0"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(tmp, spill.Prefix+"live1") // a live query of another process
	if err := os.MkdirAll(fresh, 0o755); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(tmp, "unrelated-dir")
	if err := os.MkdirAll(other, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(other, old, old); err != nil {
		t.Fatal(err)
	}

	// Open a throwaway database; its best-effort sweep must fire.
	db := spillTestDBSmall(t)
	path := filepath.Join(t.TempDir(), "x.tde")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale spill dir survived the open sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("sweep removed a fresh spill dir that may belong to a live query")
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatal("sweep removed an unrelated directory")
	}
}

func spillTestDBSmall(t testing.TB) *Database {
	t.Helper()
	db := New()
	opt := DefaultImportOptions()
	opt.Schema = []string{"k:int"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("m", []byte("1\n2\n3\n"), opt); err != nil {
		t.Fatal(err)
	}
	return db
}
