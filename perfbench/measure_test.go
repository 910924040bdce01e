package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n, pct     int
		want       float64
		wantBeyond int
	}{
		{200, 95, 190, 10},
		{199, 95, 190, 9},
		{4, 50, 2, 2},
		{5, 50, 3, 2},
		{1, 95, 1, 0},
	}
	for _, c := range cases {
		v, beyond := percentile(seq(c.n), c.pct)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..%d, %d) = %v (%d beyond), want %v (%d beyond)",
				c.n, c.pct, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 95); v != 0 || beyond != 0 {
		t.Errorf("percentile(empty) = %v, %d", v, beyond)
	}
}

func TestSummarizeNeedsTenBeyondP95(t *testing.T) {
	s, err := summarize("x", seq(minReads))
	if err != nil {
		t.Fatalf("%d samples: %v", minReads, err)
	}
	if s.n != minReads || s.beyond != minBeyond || s.p95 != 190 || s.p50 != 100 {
		t.Errorf("summary of 1..%d = %+v", minReads, s)
	}
	if _, err := summarize("x", seq(minReads-1)); err == nil {
		t.Errorf("%d samples leave 9 beyond p95 and must be refused", minReads-1)
	}
	// summarize sorts its input.
	s, err = summarize("x", append(seq(190), 1000, 999, 998, 997, 996, 995, 994, 993, 992, 991))
	if err != nil || s.p95 != 190 {
		t.Errorf("unsorted input: %+v, %v", s, err)
	}
}

func TestOpCountsErrorFrac(t *testing.T) {
	errRetry := errors.New("conflict")
	retryable := func(err error) bool { return errors.Is(err, errRetry) }
	fails := func(errs ...error) func() error {
		return func() error {
			if len(errs) == 0 {
				return nil
			}
			err := errs[0]
			errs = errs[1:]
			return err
		}
	}
	var c opCounts
	c.run(3, retryable, fails())                                      // succeeds
	c.run(3, retryable, fails(errors.New("bad query")))               // fails outright
	c.run(3, retryable, fails(errShed))                               // shed
	c.run(3, retryable, fails(errRetry))                              // retried once, then succeeds
	c.run(3, retryable, fails(errRetry, errRetry, errRetry))          // out of retries
	c.run(1, func(error) bool { return false }, fails(errRetry, nil)) // not retryable here
	want := opCounts{attempted: 6, failed: 2, shed: 1, exhausted: 1, retried: 3}
	if c != want {
		t.Fatalf("counts = %+v, want %+v", c, want)
	}
	if got := c.errorFrac(); got != 4.0/6 {
		t.Errorf("errorFrac = %v, want 4/6", got)
	}
	var sum opCounts
	sum.add(c)
	sum.add(c)
	if sum.attempted != 12 || sum.errors() != 8 {
		t.Errorf("add: %+v", sum)
	}
	if (opCounts{}).errorFrac() != 0 {
		t.Error("no operations must read as no errors")
	}
}

// fakeClock advances only when told to.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.t
	s := &schedule{start: start, period: 10 * time.Millisecond, end: start.Add(50 * time.Millisecond)}
	// Operation 0 stalls for 35ms; the rest take 1ms. The stall delays
	// operations 1-3, which were due while it ran.
	took := map[int64]time.Duration{0: 35 * time.Millisecond}
	var got []paced
	runPaced(clk, s, func(i int64) (bool, error) {
		d, ok := took[i]
		if !ok {
			d = time.Millisecond
		}
		clk.t = clk.t.Add(d)
		return false, nil
	}, func(p paced) { got = append(got, p) })

	want := []struct{ latency, late time.Duration }{
		{35 * time.Millisecond, 0},
		{26 * time.Millisecond, 25 * time.Millisecond},
		{17 * time.Millisecond, 16 * time.Millisecond},
		{8 * time.Millisecond, 7 * time.Millisecond},
		{1 * time.Millisecond, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("ran %d operations, want %d (due before the end only)", len(got), len(want))
	}
	for i, w := range want {
		if got[i].i != int64(i) || got[i].latency != w.latency || got[i].late != w.late {
			t.Errorf("op %d: latency %v late %v, want %v and %v", got[i].i, got[i].latency, got[i].late,
				w.latency, w.late)
		}
		if due := start.Add(time.Duration(i) * 10 * time.Millisecond); !got[i].due.Equal(due) {
			t.Errorf("op %d due %v, want %v", i, got[i].due, due)
		}
	}
}

func TestOpenLoopStopsOnRequest(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := &schedule{start: clk.t, period: time.Millisecond, end: clk.t.Add(time.Second)}
	n := 0
	runPaced(clk, s, func(i int64) (bool, error) { return i == 2, nil }, func(paced) { n++ })
	if n != 3 {
		t.Errorf("ran %d operations after a stop at the third, want 3", n)
	}
}

func TestCheckRows(t *testing.T) {
	want := [][]string{{"A", "1", "0.30000000000000004"}, {"B", "2", "7"}}
	cases := []struct {
		name    string
		got     [][]string
		ordered bool
		ok      bool
	}{
		{"same", [][]string{{"A", "1", "0.30000000000000004"}, {"B", "2", "7"}}, true, true},
		{"reassociated float", [][]string{{"A", "1", "0.3"}, {"B", "2", "7"}}, true, true},
		{"unordered rows", [][]string{{"B", "2", "7"}, {"A", "1", "0.3"}}, false, true},
		{"order matters", [][]string{{"B", "2", "7"}, {"A", "1", "0.3"}}, true, false},
		{"wrong count", [][]string{{"A", "1", "0.3"}}, false, false},
		{"wrong value", [][]string{{"A", "1", "0.3"}, {"B", "3", "7"}}, false, false},
		{"float off", [][]string{{"A", "1", "0.31"}, {"B", "2", "7"}}, false, false},
	}
	for _, c := range cases {
		err := checkRows(want, c.got, c.ordered)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		declared []metric
		printed  []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d",
				c.name, len(c.declared), len(c.printed))
			continue
		}
		for i, d := range c.printed {
			if c.declared[i].Name != d.name || c.declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: declared %s (%s), printed %s (%s)", c.name, i,
					c.declared[i].Name, c.declared[i].Unit, d.name, d.unit)
			}
		}
	}
}
