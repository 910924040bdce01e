package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"tde"
	"tde/internal/enc"
	"tde/internal/plan"
	"tde/internal/sqlparse"
	"tde/internal/storage"
)

// opGroup maps an operator kind to the exec layer its self time is
// charged to.
var opGroup = map[string]string{
	"Scan":              "scan",
	"IndexedScan":       "scan",
	"BuiltScan":         "scan",
	"DeltaScan":         "deltascan",
	"Select":            "filter",
	"Aggregate":         "agg",
	"ParallelAggregate": "agg",
	"HashJoin":          "join",
	"Sort":              "sort",
	"TopN":              "sort",
	"Exchange":          "exchange",
}

var selfGroups = []string{"scan", "deltascan", "filter", "agg", "join", "sort", "exchange"}

// encodedMarkers are plan steps and operator routines that mean a read
// ran on compressed data: the dictionary and index rewrites, run-emitting
// scans and the encoded filter/aggregate routines.
var (
	encodedPlanSteps = []string{"IndexTable(", "DictionaryTable(", "InvisibleJoin(", "EncodedScan["}
	encodedRoutines  = []string{"rle-", "dict-filter", "token-direct", "(runs)"}
)

// layerAcc sums the per-layer counters of a traced phase.
type layerAcc struct {
	mu sync.Mutex

	reads                      int64
	self                       map[string]int64 // ns by exec group
	scanBytes                  int64
	blocksSkipped, blocksFound int64
	cacheHits, cacheMisses     int64
	aggRowsIn                  int64
	memPeak, spillBytes        int64
	deltaPlans, encodedPlans   int64
	queryNs, overheadNs        int64

	requests                     int64
	httpOverheadNs, serverOverNs int64
	respBytes                    int64
	queued, accepted             int64

	commits           int64
	txExecNs, commitN int64
	walBytes          int64
	walCommits        int64
	overlayMax        int64
	compactRuns       int64
	gcReclaimed       int64

	decode    map[string]float64
	parseUs   float64
	buildUs   float64
	regret    float64 // 0 when the workload has no regret probe
	regretMax float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{self: map[string]int64{}, decode: map[string]float64{}}
}

// addRead folds one completed read into the counters and records its
// operator spans under parent. wallNs is the query's wall time around
// QueryContext: measured in process, or the server's elapsed time. It
// returns the root operator's busy time.
func (a *layerAcc) addRead(tr *tracer, parent int, req int64, planStr string,
	st tde.QueryStats, analyze string, wallNs int64) (int64, error) {
	parents, err := parsePlanTree(analyze)
	if err != nil {
		return 0, err
	}
	root, err := buildOpTree(st.Operators, parents)
	if err != nil {
		return 0, err
	}
	self := selfTimes(root)
	tr.addOps(parent, req, root, self)

	encoded := false
	for _, m := range encodedPlanSteps {
		encoded = encoded || strings.Contains(planStr, m)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reads++
	for _, s := range st.Operators {
		g := opGroup[s.Kind]
		a.self[g] += self[s.ID]
		switch g {
		case "scan", "deltascan":
			a.blocksSkipped += s.BlocksSkipped
			a.blocksFound += s.BlocksOut + s.BlocksSkipped
			a.cacheHits += s.CacheHits
			a.cacheMisses += s.CacheMisses
			if g == "scan" {
				a.scanBytes += s.BytesScanned
			}
		case "agg":
			a.aggRowsIn += s.RowsIn
		}
		if s.Spill != nil {
			a.spillBytes += s.Spill.BytesWritten
		}
		for _, m := range encodedRoutines {
			encoded = encoded || strings.Contains(s.Routine, m)
		}
	}
	if encoded {
		a.encodedPlans++
	}
	if strings.Contains(planStr, "DeltaScan(") {
		a.deltaPlans++
	}
	a.memPeak = max(a.memPeak, st.MemoryPeak)
	rootBusy := busyNs(root.st)
	a.queryNs += wallNs
	a.overheadNs += wallNs - rootBusy
	return rootBusy, nil
}

// metrics writes the accumulated per-layer metrics into m.
func (a *layerAcc) metrics(m map[string]float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	frac := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	perRead := func(ns int64) float64 { return frac(ns, a.reads) / 1e6 }
	for _, g := range selfGroups {
		m["exec."+g+".self_ms"] = perRead(a.self[g])
	}
	if s := a.self["scan"]; s > 0 {
		m["exec.scan.mb_s"] = float64(a.scanBytes) / 1e6 / (float64(s) / 1e9)
	}
	m["exec.scan.skip_frac"] = frac(a.blocksSkipped, a.blocksFound)
	m["exec.cache.hit_frac"] = frac(a.cacheHits, a.cacheHits+a.cacheMisses)
	m["exec.agg.ns_per_row"] = frac(a.self["agg"], a.aggRowsIn)
	m["exec.mem_peak_mb"] = float64(a.memPeak) / (1 << 20)
	m["exec.spill_bytes"] = float64(a.spillBytes)
	m["plan.delta_fallback_frac"] = frac(a.deltaPlans, a.reads)
	m["plan.encoded_frac"] = frac(a.encodedPlans, a.reads)
	if a.queryNs > 0 {
		m["tde.query_ms"] = perRead(a.queryNs)
		m["tde.overhead_ms"] = perRead(a.overheadNs)
	}
	if a.requests > 0 {
		m["serve.http_overhead_ms"] = frac(a.httpOverheadNs, a.requests) / 1e6
		m["serve.server_overhead_ms"] = frac(a.serverOverNs, a.requests) / 1e6
		m["serve.resp_kb"] = frac(a.respBytes, a.requests) / 1024
		m["serve.queued_frac"] = frac(a.queued, a.accepted)
	}
	if a.commits > 0 {
		m["tde.tx_exec_ms"] = frac(a.txExecNs, a.commits) / 1e6
		m["tde.commit_ms"] = frac(a.commitN, a.commits) / 1e6
		m["wal.bytes_per_txn"] = frac(a.walBytes, a.walCommits)
		m["delta.overlay_rows_max"] = float64(a.overlayMax)
		m["tde.compact_runs"] = float64(a.compactRuns)
		m["tde.gc_reclaimed_rows"] = float64(a.gcReclaimed)
	}
	for kind, v := range a.decode {
		m["enc.decode_mvals_s."+kind] = v
	}
	m["sqlparse.parse_us"] = a.parseUs
	m["plan.build_us"] = a.buildUs
	if a.regret > 0 {
		m["plan.auto_regret"] = a.regret
		m["plan.auto_regret_max"] = a.regretMax
	}
}

// readTables loads the extract's tables through the storage layer, for
// the probes that call enc and plan directly.
func readTables(path string) ([]*storage.Table, error) {
	tables, err := storage.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage.ReadFile: %w", err)
	}
	return tables, nil
}

// decodeKinds are the stream encodings whose decode rate is reported.
var decodeKinds = []enc.Kind{enc.Dictionary, enc.RunLength, enc.FrameOfReference, enc.Delta, enc.Affine}

// probeDecode measures the decode rate of every column stream of the
// extract, per encoding: DecodeBlock over every block, or the Reader for
// run-length streams, which have no blocks. Each encoding is decoded
// repeatedly for at least 100ms.
func probeDecode(tr *tracer, tables []*storage.Table, acc *layerAcc) {
	byKind := map[enc.Kind][]*enc.Stream{}
	for _, t := range tables {
		for _, c := range t.Columns {
			if c.Data != nil {
				byKind[c.Data.Kind()] = append(byKind[c.Data.Kind()], c.Data)
			}
		}
	}
	for _, kind := range decodeKinds {
		streams := byKind[kind]
		if len(streams) == 0 {
			continue
		}
		var values int64
		start := time.Now()
		for time.Since(start) < 100*time.Millisecond {
			values += decodeAll(tr, kind, streams)
		}
		acc.decode[kind.String()] = float64(values) / time.Since(start).Seconds() / 1e6
	}
}

func decodeAll(tr *tracer, kind enc.Kind, streams []*enc.Stream) int64 {
	name := "enc.DecodeBlock[" + kind.String() + "]"
	if kind == enc.RunLength {
		name = "enc.Reader.Read[rle]"
	}
	var values int64
	tr.timed(name, 0, 0, func() error {
		for _, s := range streams {
			out := make([]uint64, s.BlockSize())
			if kind == enc.RunLength {
				r := enc.NewReader(s)
				for at := 0; at < s.Len(); {
					n := r.Read(at, len(out), out)
					at += n
					values += int64(n)
				}
				continue
			}
			for b := 0; ; b++ {
				n := s.DecodeBlock(b, out)
				if n == 0 {
					break
				}
				values += int64(n)
			}
		}
		return nil
	})
	return values
}

// probeParseBuild times sqlparse.Parse and Statement.Build (against the
// extract's base tables) for one instance of every query class, and
// reports the mean over classes.
func probeParseBuild(tr *tracer, classes [][]query, tables []*storage.Table, acc *layerAcc) error {
	const parseReps, buildReps = 200, 20
	var parseSum, buildSum float64
	for _, cl := range classes {
		q := cl[0]
		var st *sqlparse.Statement
		d, err := tr.timed("sqlparse.Parse["+q.class+"]", 0, 0, func() (err error) {
			for i := 0; i < parseReps; i++ {
				if st, err = sqlparse.Parse(q.sql); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("parse %s: %w", q.class, err)
		}
		parseSum += float64(d.Microseconds()) / parseReps
		d, err = tr.timed("plan.Build["+q.class+"]", 0, 0, func() error {
			for i := 0; i < buildReps; i++ {
				if _, _, err := st.Build(tables, plan.Options{}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("build %s: %w", q.class, err)
		}
		buildSum += float64(d.Microseconds()) / buildReps
	}
	acc.parseUs = parseSum / float64(len(classes))
	acc.buildUs = buildSum / float64(len(classes))
	return nil
}

// planShapes are the plan shapes the regret probe forces through public
// plan.Options, next to the automatic choice.
var planShapes = []struct {
	name string
	opt  plan.Options
}{
	{"auto", plan.Options{}},
	{"serial", plan.Options{ParallelWorkers: -1}},
	{"encoded-on", plan.Options{EncodedExec: plan.ForceEncodedExec}},
	{"encoded-off", plan.Options{EncodedExec: plan.EncodedOff}},
	{"zoneskip-force", plan.Options{ZoneSkip: plan.ForceZoneSkip}},
	{"zoneskip-off", plan.Options{ZoneSkip: plan.ZoneSkipOff}},
	{"no-dict-index", plan.Options{NoDictPlan: true, NoIndexPlan: true}},
}

// probeRegret times every query class's first instance under each plan
// shape (median of three runs, answers checked) and reports the auto
// plan's latency over the best shape's: the geometric mean over classes
// and the worst class. 1.0 means the planner picked the fastest shape.
func probeRegret(ctx context.Context, tr *tracer, db *tde.Database, qopt tde.QueryOptions,
	classes [][]query, acc *layerAcc) error {
	const reps = 3
	logSum, worst := 0.0, 1.0
	var lines []string
	for _, cl := range classes {
		q := cl[0]
		times := make([]float64, len(planShapes))
		for i, shape := range planShapes {
			o := qopt
			o.Plan = shape.opt
			var runs []float64
			for r := 0; r < reps; r++ {
				var res *tde.Result
				d, err := tr.timed("plan.shape["+shape.name+"]("+q.class+")", 0, 0, func() (err error) {
					res, err = db.QueryContext(ctx, q.sql, o)
					return err
				})
				if err != nil {
					return fmt.Errorf("regret probe %s/%s: %w", q.class, shape.name, err)
				}
				if err := checkAnswer(q, res.Rows); err != nil {
					return err
				}
				runs = append(runs, ms(d))
			}
			times[i] = median(runs)
		}
		best := times[0]
		for _, t := range times {
			best = min(best, t)
		}
		r := times[0] / best
		logSum += math.Log(r)
		worst = max(worst, r)
		lines = append(lines, fmt.Sprintf("  %-16s auto %.2fms best %.2fms regret %.3f %s", q.class,
			times[0], best, r, fmtShapes(times)))
	}
	sort.Strings(lines)
	fmt.Printf("plan regret by class:\n%s\n", strings.Join(lines, "\n"))
	acc.regret = math.Exp(logSum / float64(len(classes)))
	acc.regretMax = worst
	return nil
}

func fmtShapes(times []float64) string {
	parts := make([]string, len(times))
	for i, t := range times {
		parts[i] = fmt.Sprintf("%s=%.2f", planShapes[i].name, t)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
