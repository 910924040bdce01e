package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"tde"
	"tde/internal/plan"
)

// This file is the encoded-vs-decoded differential sweep: every random
// query runs once with encoded execution forced off (the decoded oracle)
// and once per variant with it forced on, over the worker matrix and
// with the plan rewrites disabled (so the scan-path routines —
// dict-filter, rle-filter, rle-sum, token-direct — actually engage).
// Compressed execution must never change an answer, only skip decode
// work, so any mismatch is a bug by construction.

// EncodedReport extends Report with a routine-coverage counter.
type EncodedReport struct {
	Report
	// EncodedHits counts variant queries in which at least one operator
	// reported an encoded routine. Zero means the sweep never exercised
	// compressed execution and proves nothing.
	EncodedHits int
	// StringKeyDirect and CompositeKeyDirect count variant queries whose
	// aggregate ran token-direct over one string key and over two or
	// more keys.
	StringKeyDirect, CompositeKeyDirect int
}

// encodedRoutines are the routine substrings that mark compressed
// execution at work in an operator's stats.
var encodedRoutines = []string{"dict-filter", "rle-", "token-direct", "(runs)"}

// groupKeys returns the GROUP BY column names of a generated query.
func groupKeys(sql string) []string {
	_, keys, ok := strings.Cut(sql, " GROUP BY ")
	if !ok {
		return nil
	}
	keys, _, _ = strings.Cut(keys, " ORDER BY ")
	return strings.Split(keys, ", ")
}

// isStringCol reports whether name is a string column of the generator's
// grouping pools.
func isStringCol(name string) bool {
	for _, pool := range [][]colDef{lineitemGroupCols, flightsGroupCols, joinGroupCols} {
		for _, c := range pool {
			if c.name == name {
				return c.kind == 's'
			}
		}
	}
	return false
}

func ranTokenDirect(res *tde.Result) bool {
	for _, op := range res.Stats().Operators {
		if strings.Contains(op.Kind, "Aggregate") && strings.Contains(op.Routine, "token-direct") {
			return true
		}
	}
	return false
}

func usedEncodedRoutine(res *tde.Result) bool {
	for _, op := range res.Stats().Operators {
		for _, r := range encodedRoutines {
			if strings.Contains(op.Routine, r) {
				return true
			}
		}
	}
	return false
}

// BuildEncodedDatabase builds the standard differential corpus and
// dictionary-compresses a set of small-domain scalar columns, so both
// the dict-filter/token-direct routines (dictionary tokens) and the
// rle-* routines (run-length scalars) have material to work on.
func BuildEncodedDatabase(sf float64, flightRows int, seed int64) (*tde.Database, error) {
	db, err := BuildDatabase(sf, flightRows, seed)
	if err != nil {
		return nil, err
	}
	compressed := 0
	for _, tc := range [][2]string{
		{"lineitem", "l_quantity"},
		{"lineitem", "l_linenumber"},
		{"flights", "Distance"},
	} {
		// Best effort: a column whose import-time encoding is not
		// dictionary-convertible (e.g. raw) just stays as imported.
		if err := db.CompressColumn(tc[0], tc[1]); err == nil {
			compressed++
		}
	}
	if compressed < 2 {
		return nil, fmt.Errorf("difftest: only %d columns dictionary-compressed; the encoded sweep needs dictionary material", compressed)
	}
	return db, nil
}

// RunEncoded executes cfg.Queries random queries against db, comparing a
// decoded serial oracle (EncodedExec forced off) to encoded-forced
// variants across cfg.Workers, each in two plan shapes: the default
// strategic plan and the plain scan plan (rewrites disabled).
func RunEncoded(db *tde.Database, cfg Config) (*EncodedReport, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &EncodedReport{}
	for i := 0; i < cfg.Queries; i++ {
		sql := randomQuery(rng)
		rep.Queries++
		oracle, err := db.QueryWithOptions(sql, plan.Options{
			ParallelWorkers: -1, EncodedExec: plan.EncodedOff,
		})
		if err != nil {
			return rep, fmt.Errorf("difftest: decoded oracle failed: %w\n  query: %s", err, sql)
		}
		want := canonicalRows(oracle.Rows)
		keys := groupKeys(sql)
		for _, w := range cfg.Workers {
			for _, scanOnly := range []bool{false, true} {
				opt := plan.Options{
					ParallelWorkers: w,
					EncodedExec:     plan.ForceEncodedExec,
					NoDictPlan:      scanOnly,
					NoIndexPlan:     scanOnly,
				}
				rep.Comparisons++
				got, err := db.QueryContext(context.Background(), sql, tde.QueryOptions{
					Plan:         opt,
					MemoryBudget: cfg.MemoryBudget,
					SpillBudget:  cfg.SpillBudget,
				})
				if err != nil {
					rep.Mismatches = append(rep.Mismatches, Mismatch{
						SQL: sql, Opt: opt, Detail: fmt.Sprintf("query error: %v", err)})
					continue
				}
				if usedEncodedRoutine(got) {
					rep.EncodedHits++
				}
				if ranTokenDirect(got) {
					switch {
					case len(keys) > 1:
						rep.CompositeKeyDirect++
					case len(keys) == 1 && isStringCol(keys[0]):
						rep.StringKeyDirect++
					}
				}
				if got.Stats().Spilled() {
					rep.Spilled++
				}
				if d := diffRows(want, canonicalRows(got.Rows)); d != "" {
					rep.Mismatches = append(rep.Mismatches, Mismatch{SQL: sql, Opt: opt, Detail: d})
				}
			}
		}
	}
	return rep, nil
}
