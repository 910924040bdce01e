package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"tde"
	"tde/internal/flights"
)

// flightsRW is the read/write workload: the Flights extract on disk with
// its WAL and auto-compaction on, one open-loop writer committing an
// insert-heavy mix at a fixed rate, and one closed-loop reader running
// the dashboard queries over the dirty overlay. It is the only workload
// that commits, and the only one whose reads see a write overlay.
//
// Reads filter to dates before readZoneEnd and writes touch only later
// dates (base rows of the last base year, and new flights after the base
// range), so every read keeps its precomputed answer while the overlay
// is dirty.
type flightsRW struct {
	seed     int64
	x        *extract
	classes  [][]query
	baseRows int

	// Writer state; only the writer goroutine touches it during a phase.
	wrng              *rand.Rand
	deck              []string // rest of the current round of writeRound
	baseKeys, newKeys []flightKey
	nextNum           int
	inserted, deleted int64
	mix               map[string]int
}

const (
	flightRows     = 1_000_000
	readZoneEnd    = "2013-01-01" // reads see only earlier dates
	writeRate      = 12           // write transactions per second
	insertBatch    = 8            // rows per INSERT
	compactRows    = 600          // MaxDeltaRows: a merge every ~7s
	compactDead    = 2000         // MaxDeadRows
	writeAttempts  = 3
	flightPerClass = 4
)

// writeRound is one round of the writer's mix, run in a fresh seeded
// order each time, so every run commits the same number of each kind:
// 90% INSERT, 7% UPDATE, 3% DELETE.
var writeRound = map[string]int{"insert": 27, "update": 2, "delete": 1}

// flightKey identifies flights by (FlightDate, FlightNum).
type flightKey struct {
	date string
	num  int
}

var (
	flightCarriers = []string{"AA", "AS", "B6", "DL", "EV", "F9", "FL", "HA", "MQ", "NK", "OO", "UA",
		"US", "VX", "WN", "YV"}
	flightAirports = []string{"ATL", "LAX", "ORD", "DFW", "DEN", "JFK", "SFO", "SEA", "LAS", "MCO",
		"EWR", "CLT", "PHX", "IAH", "MIA", "BOS", "MSP", "FLL", "DTW", "PHL"}
)

// flightsCSV generates the Flights input.
func flightsCSV(seed int64) ([]byte, error) {
	var buf bytes.Buffer
	if err := flights.New(flightRows, seed).Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sampleKeys draws up to n distinct (FlightDate, FlightNum) keys of rows
// in the CSV whose date satisfies keep.
func sampleKeys(data []byte, rng *rand.Rand, n int, keep func(date string) bool) []flightKey {
	seen := map[flightKey]bool{}
	var out []flightKey
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		at := rng.Intn(len(data))
		start := bytes.LastIndexByte(data[:at], '\n') + 1
		end := bytes.IndexByte(data[start:], '\n')
		if end < 0 || start == 0 {
			continue // the header line or a truncated tail
		}
		f := strings.Split(string(data[start:start+end]), ",")
		num, err := strconv.Atoi(f[2])
		if err != nil || !keep(f[0]) {
			continue
		}
		k := flightKey{f[0], num}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func (w *flightsRW) setup(ctx context.Context, cfg config, tr *tracer) (*extract, error) {
	w.seed = cfg.seed
	data, err := flightsCSV(cfg.seed)
	if err != nil {
		return nil, err
	}
	x, err := buildExtract(tr, cfg.dir, "flights", []csvTable{{name: "flights", data: data, header: true}})
	if err != nil {
		return nil, err
	}
	w.x = x
	w.baseRows = x.db.Rows("flights")
	rng := rand.New(rand.NewSource(cfg.seed))
	w.baseKeys = sampleKeys(data, rng, 400, func(d string) bool { return strings.HasPrefix(d, "2013-") })
	points := sampleKeys(data, rng, 2*flightPerClass, func(d string) bool { return d < readZoneEnd })
	if len(w.baseKeys) == 0 || len(points) == 0 {
		return nil, errors.New("flights-rw: could not sample flight keys")
	}
	data = nil
	settle()

	w.classes = flightsReadClasses(rng, points)
	for _, cl := range w.classes {
		if err := withOracle(ctx, x.db, cl); err != nil {
			return nil, err
		}
	}
	w.wrng = rand.New(rand.NewSource(cfg.seed + 1))
	w.nextNum = 7001 // base flight numbers are 1..7000
	w.mix = map[string]int{}
	if err := tr.calibrate(ctx, x.db, "SELECT COUNT(*) FROM flights WHERE FlightDate = DATE '2004-01-01'"); err != nil {
		return nil, err
	}
	r := &reader{db: x.db, classes: w.classes}
	if err := r.warm(ctx); err != nil {
		return nil, err
	}
	if err := x.db.EnableAutoCompact(tde.AutoCompactOptions{
		MaxDeltaRows: compactRows, MaxDeadRows: compactDead, Interval: 250 * time.Millisecond,
	}); err != nil {
		return nil, err
	}
	fmt.Printf("flights-rw: %d base rows; open-loop writer %d tx/s (90%% INSERT of %d rows, 7%% UPDATE, 3%% DELETE by (FlightDate, FlightNum)); closed-loop reader, 1 client, %d classes; auto-compaction at %d overlay rows or %d dead rows\n",
		w.baseRows, writeRate, insertBatch, len(w.classes), compactRows, compactDead)
	settle()
	return x, nil
}

// flightsReadClasses are the dashboard queries, all confined to the read
// zone.
func flightsReadClasses(rng *rand.Rand, points []flightKey) [][]query {
	year := func() int { return 2004 + rng.Intn(9) }
	gen := []func(i int) query{
		func(int) query {
			y := year()
			return query{class: "carrier-group", ordered: true, sql: fmt.Sprintf(
				`SELECT Carrier, COUNT(*), AVG(DepDelay) FROM flights
				 WHERE FlightDate >= DATE '%d-01-01' AND FlightDate < DATE '%d-01-01'
				 GROUP BY Carrier ORDER BY Carrier`, y, y+1)}
		},
		func(int) query {
			y := year()
			return query{class: "dict-filter", sql: fmt.Sprintf(
				`SELECT COUNT(*) FROM flights WHERE Origin = '%s'
				 AND FlightDate >= DATE '%d-01-01' AND FlightDate < DATE '%d-01-01'`,
				flightAirports[rng.Intn(len(flightAirports))], y, y+1)}
		},
		func(int) query {
			y := year()
			return query{class: "cancelled-sum", sql: fmt.Sprintf(
				`SELECT COUNT(*), SUM(ArrDelay) FROM flights WHERE Cancelled = true
				 AND FlightDate >= DATE '%d-01-01' AND FlightDate < DATE '%d-01-01'`, y, y+1)}
		},
		func(int) query {
			from := time.Date(year(), time.Month(1+rng.Intn(10)), 1, 0, 0, 0, 0, time.UTC)
			return query{class: "month-band", ordered: true, sql: fmt.Sprintf(
				`SELECT MONTH(FlightDate) AS m, COUNT(*), AVG(ArrDelay) FROM flights
				 WHERE FlightDate >= DATE '%s' AND FlightDate < DATE '%s'
				 GROUP BY m ORDER BY m`, from.Format("2006-01-02"), from.AddDate(0, 3, 0).Format("2006-01-02"))}
		},
		func(i int) query {
			k := points[i%len(points)]
			return query{class: "point-lookup", sql: fmt.Sprintf(
				`SELECT Carrier, TailNum, Origin, Dest, DepDelay FROM flights
				 WHERE FlightDate = DATE '%s' AND FlightNum = %d`, k.date, k.num)}
		},
	}
	classes := make([][]query, len(gen))
	for c, g := range gen {
		n := flightPerClass
		if c == len(gen)-1 {
			n = len(points)
		}
		for i := 0; i < n; i++ {
			q := g(i)
			q.sql = strings.Join(strings.Fields(q.sql), " ")
			classes[c] = append(classes[c], q)
		}
	}
	return classes
}

// nextWrite draws the writer's next statement.
func (w *flightsRW) nextWrite() (kind, sql string) {
	rng := w.wrng
	pick := func() (flightKey, bool) {
		if len(w.newKeys) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(w.newKeys))
			return w.newKeys[i], true
		}
		return w.baseKeys[rng.Intn(len(w.baseKeys))], false
	}
	if len(w.deck) == 0 {
		for _, kind := range []string{"insert", "update", "delete"} {
			for i := 0; i < writeRound[kind]; i++ {
				w.deck = append(w.deck, kind)
			}
		}
		rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
	}
	kind, w.deck = w.deck[0], w.deck[1:]
	switch kind {
	case "insert":
		var vals []string
		for r := 0; r < insertBatch; r++ {
			day := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, rng.Intn(365)).Format("2006-01-02")
			k := flightKey{day, w.nextNum}
			w.nextNum++
			w.newKeys = append(w.newKeys, k)
			o := rng.Intn(len(flightAirports))
			d := (o + 1 + rng.Intn(len(flightAirports)-1)) % len(flightAirports)
			dep := rng.Intn(60) - 5
			vals = append(vals, fmt.Sprintf("(DATE '%s', '%s', %d, 'N%05d', '%s', '%s', %d, %d, %d, %d, false)",
				k.date, flightCarriers[rng.Intn(len(flightCarriers))], k.num, 10000+rng.Intn(4000),
				flightAirports[o], flightAirports[d], 500+100*rng.Intn(18), dep, dep+rng.Intn(31)-15,
				100+rng.Intn(2600)))
		}
		return kind, "INSERT INTO flights VALUES " + strings.Join(vals, ", ")
	case "update":
		k, _ := pick()
		return kind, fmt.Sprintf("UPDATE flights SET DepDelay = DepDelay + 7, ArrDelay = ArrDelay + 7 WHERE FlightDate = DATE '%s' AND FlightNum = %d", k.date, k.num)
	default:
		k, _ := pick()
		return kind, fmt.Sprintf("DELETE FROM flights WHERE FlightDate = DATE '%s' AND FlightNum = %d", k.date, k.num)
	}
}

// txTiming is one write transaction's layer timings.
type txTiming struct {
	begin, exec, commit [2]time.Time
	walDelta            int64
}

// writeTx runs sql in its own transaction and commits it durably,
// returning the row count Exec reported.
func (w *flightsRW) writeTx(ctx context.Context, sql string, traced bool, t *txTiming) (int, error) {
	db := w.x.db
	var walBefore int64
	if traced {
		walBefore = db.WriteStats().WALBytes
	}
	t.begin[0] = time.Now()
	tx, err := db.BeginContext(ctx)
	t.begin[1] = time.Now()
	if err != nil {
		return 0, err
	}
	t.exec[0] = t.begin[1]
	n, err := tx.Exec(sql)
	t.exec[1] = time.Now()
	if err != nil {
		_ = tx.Rollback() // the Exec error is the one to report
		return 0, err
	}
	t.commit[0] = t.exec[1]
	err = tx.Commit()
	t.commit[1] = time.Now()
	if traced {
		t.walDelta = db.WriteStats().WALBytes - walBefore
	}
	return n, err
}

func (w *flightsRW) phase(ctx context.Context, d time.Duration, minReads int, tr *tracer,
	acc *layerAcc) (*phaseResult, error) {
	db := w.x.db
	traced := acc != nil
	before := db.AutoCompactStats()

	// A traced phase samples the overlay size beside the reader's heap
	// sampler.
	var overlayMax int64
	var overlayMu sync.Mutex
	var overlay *sampler
	if traced {
		overlay = startSampler(20*time.Millisecond, func() {
			var rows int64
			for _, t := range db.WriteStats().Tables {
				rows += int64(t.LiveRows + t.DeadRows)
			}
			overlayMu.Lock()
			overlayMax = max(overlayMax, rows)
			overlayMu.Unlock()
		})
	}

	// The writer runs on its own open-loop schedule beside the reader.
	var commits, late []float64
	var wops opCounts
	var wwg sync.WaitGroup
	wwg.Add(1)
	start := time.Now()
	sched := &schedule{start: start, period: time.Second / writeRate, end: start.Add(d)}
	go func() {
		defer wwg.Done()
		runPaced(realClock{}, sched, func(int64) (bool, error) {
			kind, sql := w.nextWrite()
			req := tr.request()
			var t txTiming
			var n int
			err := wops.run(writeAttempts, func(err error) bool { return errors.Is(err, tde.ErrConflict) },
				func() (err error) {
					n, err = w.writeTx(ctx, sql, traced, &t)
					return err
				})
			if err != nil {
				return false, err
			}
			w.mix[kind]++
			switch kind {
			case "insert":
				w.inserted += int64(n)
			case "delete":
				w.deleted += int64(n)
			}
			if traced {
				id := tr.add(span{name: "write(" + kind + ")", cat: "bench", start: sinceNs(t.begin[0]),
					end: sinceNs(t.commit[1]), req: req, args: map[string]any{"rows": n}})
				tr.add(span{name: "tde.BeginContext", cat: "bench", start: sinceNs(t.begin[0]), end: sinceNs(t.begin[1]), parent: id, req: req})
				tr.add(span{name: "tde.Tx.Exec", cat: "bench", start: sinceNs(t.exec[0]), end: sinceNs(t.exec[1]), parent: id, req: req})
				tr.add(span{name: "tde.Tx.Commit", cat: "bench", start: sinceNs(t.commit[0]), end: sinceNs(t.commit[1]), parent: id, req: req})
				acc.mu.Lock()
				acc.commits++
				acc.txExecNs += int64(t.exec[1].Sub(t.exec[0]))
				acc.commitN += int64(t.commit[1].Sub(t.commit[0]))
				if t.walDelta > 0 {
					acc.walBytes += t.walDelta
					acc.walCommits++
				}
				acc.mu.Unlock()
			}
			return false, nil
		}, func(p paced) {
			late = append(late, ms(p.late))
			if p.err == nil {
				commits = append(commits, ms(p.latency))
			}
		})
	}()

	r := &reader{db: db, classes: w.classes, tr: tr, acc: acc}
	ph, err := closedLoop(ctx, w.seed, 1, d, minReads, r)
	wwg.Wait()
	if overlay != nil {
		overlay.finish()
	}
	if ph == nil {
		return nil, err
	}
	ph.commits, ph.late = commits, late
	ph.ops.add(wops)
	after := db.AutoCompactStats()
	if after.LastErr != "" {
		return nil, fmt.Errorf("auto-compaction failed: %s", after.LastErr)
	}
	fmt.Printf("flights-rw: %d commits (%d insert, %d update, %d delete so far), %d compactions, %d rows reclaimed by GC\n",
		len(commits), w.mix["insert"], w.mix["update"], w.mix["delete"],
		after.Runs-before.Runs, after.ReclaimedRows-before.ReclaimedRows)
	if traced {
		acc.mu.Lock()
		acc.overlayMax = max(acc.overlayMax, overlayMax)
		acc.compactRuns += int64(after.Runs - before.Runs)
		acc.gcReclaimed += int64(after.ReclaimedRows - before.ReclaimedRows)
		acc.mu.Unlock()
	}
	return ph, err
}

func (w *flightsRW) probe(ctx context.Context, tr *tracer, acc *layerAcc) error {
	tables, err := readTables(w.x.path)
	if err != nil {
		return err
	}
	probeDecode(tr, tables, acc)
	if err := probeParseBuild(tr, w.classes, tables, acc); err != nil {
		return err
	}
	return probeRegret(ctx, tr, w.x.db, tde.QueryOptions{}, w.classes, acc)
}

// finish checks the write path's bookkeeping after the writer stopped:
// the table holds base + inserted - deleted rows (as Exec counted them),
// and a dashboard query still matches its oracle answer.
func (w *flightsRW) finish(ctx context.Context) error {
	db := w.x.db
	defer db.Close()
	db.DisableAutoCompact()
	res, err := db.QueryContext(ctx, "SELECT COUNT(*) FROM flights", tde.QueryOptions{})
	if err != nil {
		return err
	}
	want := int64(w.baseRows) + w.inserted - w.deleted
	if got := res.Rows[0][0]; got != strconv.FormatInt(want, 10) {
		return &mismatchError{q: query{class: "row-count", sql: "SELECT COUNT(*) FROM flights"},
			err: fmt.Errorf("%s rows, want %d base + %d inserted - %d deleted", got, w.baseRows, w.inserted, w.deleted)}
	}
	q := w.classes[0][0]
	res, err = db.QueryContext(ctx, q.sql, tde.QueryOptions{})
	if err != nil {
		return err
	}
	if err := checkAnswer(q, res.Rows); err != nil {
		return err
	}
	fmt.Printf("flights-rw: final row count %d = %d + %d - %d; %s matches its oracle\n",
		want, w.baseRows, w.inserted, w.deleted, q.class)
	return nil
}
