// Command perfbench is the repository benchmark: three seeded workloads
// driven through the engine's public API from one process, every answer
// checked against the engine's oracle plan options, every end-to-end
// metric printed by name with its unit, and a separate traced run that
// attributes time to the engine's layers.
//
//	bash perfbench/run.sh --workload tpch-olap --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. A wrong answer
// prints correct=false and exits 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"tde"
	"tde/internal/plan"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees; every workload
// reports all of them. They mirror BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"bytes_stored_ratio", "ratio"},
	{"query_qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"heap_peak_mb", "MiB"},
}

// perLayer are the traced run's metrics. A metric whose layer a
// workload does not run reads 0 on that workload.
var perLayer = []metricDef{
	{"textscan.import_mb_s", "MB/s"},
	{"storage.save_s", "s"},
	{"storage.open_ms", "ms"},
	{"enc.decode_mvals_s.dict", "Mval/s"},
	{"enc.decode_mvals_s.rle", "Mval/s"},
	{"enc.decode_mvals_s.for", "Mval/s"},
	{"enc.decode_mvals_s.delta", "Mval/s"},
	{"enc.decode_mvals_s.affine", "Mval/s"},
	{"sqlparse.parse_us", "us"},
	{"plan.build_us", "us"},
	{"plan.auto_regret", "ratio"},
	{"plan.auto_regret_max", "ratio"},
	{"plan.delta_fallback_frac", "ratio"},
	{"plan.encoded_frac", "ratio"},
	{"exec.scan.self_ms", "ms"},
	{"exec.scan.mb_s", "MB/s"},
	{"exec.scan.skip_frac", "ratio"},
	{"exec.cache.hit_frac", "ratio"},
	{"exec.deltascan.self_ms", "ms"},
	{"exec.filter.self_ms", "ms"},
	{"exec.agg.self_ms", "ms"},
	{"exec.agg.ns_per_row", "ns/row"},
	{"exec.join.self_ms", "ms"},
	{"exec.sort.self_ms", "ms"},
	{"exec.exchange.self_ms", "ms"},
	{"exec.mem_peak_mb", "MiB"},
	{"exec.spill_bytes", "bytes"},
	{"tde.query_ms", "ms"},
	{"tde.overhead_ms", "ms"},
	{"tde.tx_exec_ms", "ms"},
	{"tde.commit_ms", "ms"},
	{"commit_p50_ms", "ms"},
	{"commit_p95_ms", "ms"},
	{"wal.bytes_per_txn", "bytes"},
	{"delta.overlay_rows_max", "count"},
	{"tde.compact_runs", "count"},
	{"tde.gc_reclaimed_rows", "count"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.server_overhead_ms", "ms"},
	{"serve.queued_frac", "ratio"},
	{"serve.resp_kb", "KiB"},
	{"driver.gen_late_ms", "ms"},
	{"error_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

type config struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	dir        string // scratch directory of this run
	outDir     string // where traces are kept
	tracecheck string
}

// query is one parameterised instance of a query class with its oracle
// answer.
type query struct {
	class   string
	sql     string
	ordered bool
	want    [][]string
}

// oracleOptions is the engine's reference configuration: serial,
// decoded, no block skipping, no dictionary or index rewrites.
var oracleOptions = plan.Options{
	ParallelWorkers: -1,
	EncodedExec:     plan.EncodedOff,
	ZoneSkip:        plan.ZoneSkipOff,
	NoDictPlan:      true,
	NoIndexPlan:     true,
}

// withOracle fills in each query's answer under oracleOptions.
func withOracle(ctx context.Context, db *tde.Database, qs []query) error {
	for i := range qs {
		res, err := db.QueryContext(ctx, qs[i].sql, tde.QueryOptions{Plan: oracleOptions})
		if err != nil {
			return fmt.Errorf("oracle for %s: %w\n  %s", qs[i].class, err, qs[i].sql)
		}
		qs[i].want = res.Rows
	}
	return nil
}

// mismatchError is a wrong answer: it fails the run outright.
type mismatchError struct {
	q   query
	err error
}

func (e *mismatchError) Error() string {
	return fmt.Sprintf("wrong answer for %s: %v\n  %s", e.q.class, e.err, e.q.sql)
}

// checkAnswer compares rows with q's oracle answer.
func checkAnswer(q query, rows [][]string) error {
	if err := checkRows(q.want, rows, q.ordered); err != nil {
		return &mismatchError{q: q, err: err}
	}
	return nil
}

// phaseResult is one timed phase of a workload.
type phaseResult struct {
	elapsed  time.Duration
	reads    []float64 // ms
	commits  []float64 // ms
	late     []float64 // ms, open-loop senders only
	ops      opCounts
	heapPeak uint64
	byClass  map[string][]float64 // read latencies (ms) per query class
}

func (ph *phaseResult) addClasses(m map[string][]float64) {
	if ph.byClass == nil {
		ph.byClass = map[string][]float64{}
	}
	for c, v := range m {
		ph.byClass[c] = append(ph.byClass[c], v...)
	}
}

// workload is what the driver needs from each of the three workloads.
type workload interface {
	// setup generates the inputs, builds the extract (timed) and
	// precomputes the answers (untimed).
	setup(ctx context.Context, cfg config, tr *tracer) (*extract, error)
	// phase runs the timed loop for d. acc is nil in untimed phases;
	// minReads > 0 extends the phase until that many reads completed.
	phase(ctx context.Context, d time.Duration, minReads int, tr *tracer, acc *layerAcc) (*phaseResult, error)
	// probe runs the traced run's per-layer probes.
	probe(ctx context.Context, tr *tracer, acc *layerAcc) error
	// finish runs the post-timing checks and releases everything.
	finish(ctx context.Context) error
}

// minReads is the read count a p95 needs to have minBeyond samples
// above it.
const minReads = minBeyond * 20

type result struct {
	correct bool
	ops     opCounts
	metrics map[string]float64
}

func main() {
	var cfg config
	var workDir string
	flag.StringVar(&cfg.workload, "workload", "", "tpch-olap | flights-rw | flights-serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "timed seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run")
	flag.StringVar(&workDir, "work", ".bench_build", "directory for extracts and traces")
	flag.StringVar(&cfg.tracecheck, "tracecheck", "", "trace checker binary (traced runs)")
	flag.Parse()
	cfg.trace = *traceFlag == 1

	var w workload
	switch cfg.workload {
	case "tpch-olap":
		w = &tpchOLAP{}
	case "flights-rw":
		w = &flightsRW{}
	case "flights-serve":
		w = &flightsServe{}
	default:
		fatalf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 2 || (*traceFlag != 0 && *traceFlag != 1) {
		fatalf("need --seconds >= 2 and --trace 0|1")
	}
	if cfg.trace && cfg.tracecheck == "" {
		fatalf("a traced run needs --tracecheck")
	}
	var err error
	if cfg.dir, err = os.MkdirTemp(workDir, "run-"+cfg.workload+"-"); err != nil {
		fatalf("%v", err)
	}
	cfg.outDir = filepath.Join(workDir, "traces")
	res, err := run(context.Background(), cfg, w)
	os.RemoveAll(cfg.dir)
	if err != nil && res == nil {
		fatalf("%v", err)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	emit(cfg, res)
	if !res.correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// run sets the workload up, times it and, for a traced run, times it
// again with tracing and runs the layer probes. A non-nil result with an
// error is a wrong answer; a nil result is a run that could not finish.
func run(ctx context.Context, cfg config, w workload) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	x, err := w.setup(ctx, cfg, tr)
	if err != nil {
		return failed(err)
	}
	res := &result{correct: true, metrics: map[string]float64{}}
	m := res.metrics
	m["setup_s"] = median(x.setupS)
	m["bytes_stored_ratio"] = float64(x.fileBytes) / float64(x.csvBytes)
	fmt.Printf("%s seed=%d: csv %d bytes, extract %d bytes, setup x%d: %s\n", cfg.workload, cfg.seed,
		x.csvBytes, x.fileBytes, len(x.setupS), fmtList(x.setupS, "s"))

	d := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		ph, err := w.phase(ctx, d, minReads, nil, nil)
		if err != nil {
			return failed(err)
		}
		if err := phaseMetrics("timed", ph, m); err != nil {
			return failed(err)
		}
		res.ops = ph.ops
	} else {
		// The untraced half gives the baseline the traced half's overhead
		// is measured against.
		plain, err := w.phase(ctx, d/2, 0, nil, nil)
		if err != nil {
			return failed(err)
		}
		base := map[string]float64{}
		if err := phaseMetrics("untraced", plain, base); err != nil {
			return failed(err)
		}
		acc := newLayerAcc()
		ph, err := w.phase(ctx, d/2, 0, tr, acc)
		if err != nil {
			return failed(err)
		}
		traced := map[string]float64{}
		if err := phaseMetrics("traced", ph, traced); err != nil {
			return failed(err)
		}
		if err := w.probe(ctx, tr, acc); err != nil {
			return failed(err)
		}
		acc.metrics(m)
		m["textscan.import_mb_s"] = float64(x.csvBytes) / median(x.importS) / 1e6
		m["storage.save_s"] = median(x.saveS)
		m["storage.open_ms"] = median(x.openS) * 1e3
		m["trace.overhead_frac"] = traced["query_p50_ms"]/base["query_p50_ms"] - 1
		if len(ph.late) > 0 {
			m["driver.gen_late_ms"] = mean(ph.late)
		}
		// Commit latency pools both halves so its p95 has ten samples
		// beyond it, like the end-to-end percentiles.
		if commits := append(plain.commits, ph.commits...); len(commits) > 0 {
			cs, err := summarize("commit latency", commits)
			if err != nil {
				return failed(err)
			}
			m["commit_p50_ms"], m["commit_p95_ms"] = cs.p50, cs.p95
			fmt.Printf("both phases: commits n=%d p50=%.3fms p95=%.3fms (%d beyond p95)\n",
				cs.n, cs.p50, cs.p95, cs.beyond)
		}
		res.ops = plain.ops
		res.ops.add(ph.ops)
		m["error_frac"] = res.ops.errorFrac()
		if err := writeTrace(cfg, tr); err != nil {
			return failed(err)
		}
	}
	if err := w.finish(ctx); err != nil {
		return failed(err)
	}
	return res, nil
}

// failed turns a wrong answer into a result with correct=false, and
// anything else into a run error.
func failed(err error) (*result, error) {
	var mm *mismatchError
	if errors.As(err, &mm) {
		return &result{correct: false, metrics: map[string]float64{}}, err
	}
	return nil, err
}

// phaseMetrics derives the end-to-end metrics of one phase into m and
// prints them with their sample counts.
func phaseMetrics(label string, ph *phaseResult, m map[string]float64) error {
	rs, err := summarize("query latency", ph.reads)
	if err != nil && label == "timed" {
		return err
	}
	m["query_qps"] = float64(rs.n) / ph.elapsed.Seconds()
	m["query_p50_ms"] = rs.p50
	m["query_p95_ms"] = rs.p95
	m["heap_peak_mb"] = float64(ph.heapPeak) / (1 << 20)
	fmt.Printf("%s phase %.2fs: reads n=%d qps=%.2f p50=%.3fms p95=%.3fms (%d beyond p95), heap peak %.1f MiB\n",
		label, ph.elapsed.Seconds(), rs.n, m["query_qps"], rs.p50, rs.p95, rs.beyond, m["heap_peak_mb"])
	for _, c := range sortedKeys(ph.byClass) {
		v := ph.byClass[c]
		sort.Float64s(v)
		p95, _ := percentile(v, 95)
		fmt.Printf("%s phase: %-20s n=%4d p50=%.3fms p95=%.3fms max=%.3fms\n", label, c, len(v), median(v), p95, v[len(v)-1])
	}
	if len(ph.commits) > 0 {
		cs, err := summarize("commit latency", ph.commits)
		if err != nil && label == "timed" {
			return err
		}
		m["commit_p50_ms"] = cs.p50
		m["commit_p95_ms"] = cs.p95
		fmt.Printf("%s phase: commits n=%d p50=%.3fms p95=%.3fms (%d beyond p95)\n",
			label, cs.n, cs.p50, cs.p95, cs.beyond)
	}
	if len(ph.late) > 0 {
		fmt.Printf("%s phase: open-loop sender late by %.3fms on average over %d sends\n",
			label, mean(ph.late), len(ph.late))
	}
	fmt.Printf("%s phase: attempted=%d failed=%d shed=%d out-of-retries=%d retried=%d error_frac=%g\n",
		label, ph.ops.attempted, ph.ops.failed, ph.ops.shed, ph.ops.exhausted, ph.ops.retried,
		ph.ops.errorFrac())
	return nil
}

// writeTrace saves the spans as a Chrome trace and runs the repository's
// trace checker on it.
func writeTrace(cfg config, tr *tracer) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	if err := tr.writeChrome(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	out, err := exec.Command(cfg.tracecheck, path).CombinedOutput()
	if err != nil {
		return fmt.Errorf("trace check of %s: %v\n%s", path, err, out)
	}
	fmt.Printf("trace %s: %s", path, out)
	return nil
}

// emit prints every metric of the run's mode by name, then the JSON
// result line.
func emit(cfg config, res *result) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		v := res.metrics[d.name]
		out[d.name] = value{v, d.unit}
		fmt.Printf("%-28s %16.6f %s\n", d.name, v, d.unit)
	}
	attempted := max(res.ops.attempted, 1)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, attempted, res.ops.errors(), out})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// csvTable is one generated input table.
type csvTable struct {
	name   string
	data   []byte
	schema []string
	header bool
}

func (t csvTable) rows() int {
	n := bytes.Count(t.data, []byte{'\n'})
	if t.header {
		n--
	}
	return n
}

// extract is the on-disk database setup produced, with the timings of
// each setup repetition.
type extract struct {
	db                  *tde.Database
	path                string
	csvBytes, fileBytes int64
	setupS              []float64
	importS             []float64
	saveS               []float64
	openS               []float64
}

// setupReps is how many times setup runs; setup_s is their median.
const setupReps = 3

// buildExtract imports tables (ImportCSV), saves the database (Save) and
// reopens it (Open), setupReps times; the last opened database is kept.
// Row counts are checked after every open.
func buildExtract(tr *tracer, dir, name string, tables []csvTable) (*extract, error) {
	x := &extract{path: filepath.Join(dir, name+".tde")}
	for _, t := range tables {
		x.csvBytes += int64(len(t.data))
	}
	for rep := 0; rep < setupReps; rep++ {
		if x.db != nil {
			x.db.Close()
			x.db = nil
		}
		runtime.GC()
		req := tr.request()
		root := tr.begin("setup", 0, req)
		db := tde.New()
		var imp time.Duration
		for _, t := range tables {
			opt := tde.DefaultImportOptions()
			opt.Schema = t.schema
			opt.HeaderSet, opt.HasHeader = true, t.header
			d, err := tr.timed("textscan.ImportCSV("+t.name+")", root, req, func() error {
				return db.ImportCSV(t.name, t.data, opt)
			})
			if err != nil {
				return nil, fmt.Errorf("import %s: %w", t.name, err)
			}
			imp += d
		}
		save, err := tr.timed("storage.Save", root, req, func() error { return db.Save(x.path) })
		if err != nil {
			return nil, fmt.Errorf("save: %w", err)
		}
		db.Close()
		open, err := tr.timed("storage.Open", root, req, func() (err error) {
			x.db, err = tde.Open(x.path)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		tr.end(root)
		x.importS = append(x.importS, imp.Seconds())
		x.saveS = append(x.saveS, save.Seconds())
		x.openS = append(x.openS, open.Seconds())
		x.setupS = append(x.setupS, (imp + save + open).Seconds())
		for _, t := range tables {
			if got, want := x.db.Rows(t.name), t.rows(); got != want {
				return nil, fmt.Errorf("%s: extract has %d rows, input has %d", t.name, got, want)
			}
		}
	}
	fi, err := os.Stat(x.path)
	if err != nil {
		return nil, err
	}
	x.fileBytes = fi.Size()
	return x, nil
}

// decodedBytes is the decoded size of the named columns the decode cache
// can hold (run-length columns bypass it): 8 bytes per value.
func decodedBytes(db *tde.Database, table string, cols []string) (int64, error) {
	infos, err := db.Columns(table)
	if err != nil {
		return 0, err
	}
	want := map[string]bool{}
	for _, c := range cols {
		want[c] = true
	}
	var n int64
	for _, c := range infos {
		if want[c.Name] && c.Encoding != "rle" {
			n += int64(c.Rows) * 8
		}
	}
	return n, nil
}

// settle drops garbage left by generation and setup so the timed phase
// starts from the live working set.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// sampler polls the Go heap (and an optional probe) while a phase runs.
type sampler struct {
	stop, done chan struct{}
	mu         sync.Mutex
	peak       uint64
}

var heapMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

// startSampler samples heap in use (objects plus fragmentation of the
// spans holding them) every period, calling probe too when non-nil.
func startSampler(period time.Duration, probe func()) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := make([]metrics.Sample, len(heapMetrics))
	for i, n := range heapMetrics {
		samples[i].Name = n
	}
	read := func() {
		metrics.Read(samples)
		var v uint64
		for _, x := range samples {
			v += x.Value.Uint64()
		}
		s.mu.Lock()
		s.peak = max(s.peak, v)
		s.mu.Unlock()
		if probe != nil {
			probe()
		}
	}
	read()
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak heap in use.
func (s *sampler) finish() uint64 {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func fmtList(v []float64, unit string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f%s", x, unit)
	}
	return strings.Join(parts, " ")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedKeys returns m's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
