package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"tde"
	"tde/internal/serve"
)

// flightsServe is the serving workload: the clean Flights extract behind
// serve.Server over loopback HTTP, fed by an open-loop generator at a
// fixed rate over at most two connections, with a decode cache large
// enough for the working set. Three of the four request shapes take
// about a millisecond of engine work, so admission, HTTP and JSON are a
// large share of their latency: the mirror image of tpch-olap. The
// fourth, a year of one carrier's origins, sets the p95; with only
// millisecond requests the p95 followed the host's scheduling noise.
type flightsServe struct {
	seed      int64
	x         *extract
	classes   [][]query
	srv       *serve.Server
	hs        *http.Server
	served    chan error
	url       string
	client    *http.Client
	transport *http.Transport
}

const (
	serveRate     = 80 // requests per second
	serveConns    = 2
	serveCacheMiB = 96
	servePerClass = 8
)

// flightsServeCols are the columns the request mix reads.
var flightsServeCols = []string{"Carrier", "FlightNum", "TailNum", "Origin", "Dest", "CRSDepTime",
	"DepDelay", "ArrDelay", "FlightDate"}

func (w *flightsServe) setup(ctx context.Context, cfg config, tr *tracer) (*extract, error) {
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
	data = nil
	settle()

	w.classes = serveClasses(rand.New(rand.NewSource(cfg.seed)))
	for _, cl := range w.classes {
		if err := withOracle(ctx, x.db, cl); err != nil {
			return nil, err
		}
	}
	ws, err := decodedBytes(x.db, "flights", flightsServeCols)
	if err != nil {
		return nil, err
	}
	if err := tr.calibrate(ctx, x.db, "SELECT COUNT(*) FROM flights WHERE FlightDate = DATE '2004-01-01'"); err != nil {
		return nil, err
	}

	w.srv = serve.New(x.db, serve.Config{
		MaxConcurrent: serveConns,
		Governor:      tde.GovernorConfig{CacheBytes: serveCacheMiB << 20},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.url = "http://" + ln.Addr().String() + "/query"
	w.transport = &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns,
		DisableCompression: true}
	w.client = &http.Client{Transport: w.transport}
	for _, cl := range w.classes {
		for _, q := range cl {
			if err := w.request(ctx, q, nil, nil, 0); err != nil {
				return nil, err
			}
		}
	}
	fmt.Printf("flights-serve: %d rows; decoded working set %.1f MiB vs decode cache %d MiB; open loop %d req/s over %d connections, %d classes x %d instances\n",
		x.db.Rows("flights"), float64(ws)/(1<<20), serveCacheMiB, serveRate, serveConns,
		len(w.classes), servePerClass)
	settle()
	return x, nil
}

// serveClasses are the request shapes of a flights dashboard.
func serveClasses(rng *rand.Rand) [][]query {
	day := func() time.Time {
		return time.Date(2004, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, rng.Intn(3650))
	}
	fmtDay := func(t time.Time) string { return t.Format("2006-01-02") }
	gen := []func() query{
		func() query {
			return query{class: "point-date-carrier", sql: fmt.Sprintf(
				`SELECT FlightNum, Origin, Dest, DepDelay FROM flights
				 WHERE FlightDate = DATE '%s' AND Carrier = '%s'`,
				fmtDay(day()), flightCarriers[rng.Intn(len(flightCarriers))])}
		},
		func() query {
			return query{class: "day-board", sql: fmt.Sprintf(
				`SELECT Carrier, FlightNum, TailNum, Origin, Dest, CRSDepTime, DepDelay, ArrDelay
				 FROM flights WHERE FlightDate = DATE '%s'`, fmtDay(day()))}
		},
		func() query {
			m := day()
			m = time.Date(m.Year(), m.Month(), 1, 0, 0, 0, 0, time.UTC)
			return query{class: "month-carriers", ordered: true, sql: fmt.Sprintf(
				`SELECT Carrier, COUNT(*), AVG(ArrDelay) FROM flights
				 WHERE FlightDate >= DATE '%s' AND FlightDate < DATE '%s'
				 GROUP BY Carrier ORDER BY Carrier`, fmtDay(m), fmtDay(m.AddDate(0, 1, 0)))}
		},
		func() query {
			y := 2004 + rng.Intn(10)
			return query{class: "carrier-origins", ordered: true, sql: fmt.Sprintf(
				`SELECT Origin, COUNT(*), AVG(DepDelay) FROM flights
				 WHERE Carrier = '%s' AND FlightDate >= DATE '%d-01-01' AND FlightDate < DATE '%d-01-01'
				 GROUP BY Origin ORDER BY Origin`,
				flightCarriers[rng.Intn(len(flightCarriers))], y, y+1)}
		},
	}
	classes := make([][]query, len(gen))
	for i, g := range gen {
		for k := 0; k < servePerClass; k++ {
			q := g()
			q.sql = strings.Join(strings.Fields(q.sql), " ")
			classes[i] = append(classes[i], q)
		}
	}
	return classes
}

// request posts q, checks the answer and, when acc is set, records the
// request's spans and serving counters.
func (w *flightsServe) request(ctx context.Context, q query, tr *tracer, acc *layerAcc, req int64) error {
	body, err := json.Marshal(serve.QueryRequest{SQL: q.sql, Analyze: acc != nil})
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	sent := time.Now()
	resp, err := w.client.Do(hreq)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		return err
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", errShed, raw)
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if err := checkAnswer(q, qr.Rows); err != nil {
		return err
	}
	if acc != nil && qr.Stats != nil {
		rt := done.Sub(sent)
		elapsed := time.Duration(qr.ElapsedMillis * float64(time.Millisecond))
		id := tr.add(span{name: "http.request(" + q.class + ")", cat: "bench", start: sinceNs(sent),
			end: sinceNs(done), req: req, args: map[string]any{"resp_bytes": len(raw)}})
		// The server reports only how long it held the request, so its span
		// is centred in the round trip.
		srvStart := sinceNs(sent) + int64(rt-elapsed)/2
		sid := tr.add(span{name: "serve.handler", cat: "bench", start: srvStart,
			end: srvStart + int64(elapsed), parent: id, req: req})
		rootBusy, err := acc.addRead(tr, sid, req, qr.Plan, *qr.Stats, qr.Analyze, int64(elapsed))
		if err != nil {
			return err
		}
		acc.mu.Lock()
		acc.requests++
		acc.httpOverheadNs += int64(rt - elapsed)
		acc.serverOverNs += int64(elapsed) - rootBusy
		acc.respBytes += int64(len(raw))
		acc.mu.Unlock()
	}
	return nil
}

// servePlan is the phase's request sequence: classes in a freshly
// shuffled order per round, a random instance of each.
func servePlan(rng *rand.Rand, classes [][]query, n int) []query {
	out := make([]query, 0, n+len(classes))
	for len(out) < n {
		for _, ci := range rng.Perm(len(classes)) {
			cl := classes[ci]
			out = append(out, cl[rng.Intn(len(cl))])
		}
	}
	return out
}

func (w *flightsServe) phase(ctx context.Context, d time.Duration, minReads int, tr *tracer,
	acc *layerAcc) (*phaseResult, error) {
	n := int(d.Seconds()*serveRate) + 1
	plan := servePlan(rand.New(rand.NewSource(w.seed*7919)), w.classes, n)
	before := w.srv.Stats()
	s := startSampler(20*time.Millisecond, nil)
	start := time.Now()
	sched := &schedule{start: start, period: time.Second / serveRate, end: start.Add(d)}
	var (
		mu       sync.Mutex
		ph       = &phaseResult{}
		mismatch error
		wg       sync.WaitGroup
	)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops opCounts
			var lat, late []float64
			byClass := map[string][]float64{}
			runPaced(realClock{}, sched, func(i int64) (bool, error) {
				q := plan[i%int64(len(plan))]
				err := ops.run(1, func(error) bool { return false }, func() error {
					return w.request(ctx, q, tr, acc, tr.request())
				})
				var mm *mismatchError
				return errors.As(err, &mm), err
			}, func(p paced) {
				late = append(late, ms(p.late))
				if p.err == nil {
					lat = append(lat, ms(p.latency))
					c := plan[p.i%int64(len(plan))].class
					byClass[c] = append(byClass[c], ms(p.latency))
				}
				var mm *mismatchError
				if errors.As(p.err, &mm) {
					mu.Lock()
					if mismatch == nil {
						mismatch = p.err
					}
					mu.Unlock()
				}
			})
			mu.Lock()
			defer mu.Unlock()
			ph.reads = append(ph.reads, lat...)
			ph.addClasses(byClass)
			ph.late = append(ph.late, late...)
			ph.ops.add(ops)
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.heapPeak = s.finish()
	after := w.srv.Stats()
	if acc != nil {
		acc.mu.Lock()
		acc.queued += after.Queued - before.Queued
		acc.accepted += after.Accepted - before.Accepted
		acc.mu.Unlock()
	}
	c0, c1 := before.Governor.Cache, after.Governor.Cache
	fmt.Printf("flights-serve: server accepted %d, queued %d, shed %d; decode cache hits %d misses %d evictions %d\n",
		after.Accepted-before.Accepted, after.Queued-before.Queued, after.Shed-before.Shed,
		c1.Hits-c0.Hits, c1.Misses-c0.Misses, c1.Evictions-c0.Evictions)
	return ph, mismatch
}

func (w *flightsServe) probe(ctx context.Context, tr *tracer, acc *layerAcc) error {
	tables, err := readTables(w.x.path)
	if err != nil {
		return err
	}
	probeDecode(tr, tables, acc)
	return probeParseBuild(tr, w.classes, tables, acc)
}

// finish shuts the HTTP server and the serving layer down and waits for
// both.
func (w *flightsServe) finish(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	w.transport.CloseIdleConnections()
	err = errors.Join(err, w.srv.Drain(ctx), w.x.db.Close())
	return err
}
