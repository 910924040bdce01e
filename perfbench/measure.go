package main

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p95 over fewer than 200 samples is the maximum in disguise.
const minBeyond = 10

// percentile returns the nearest-rank pct-th percentile (0 < pct < 100)
// of sorted samples and the number of samples strictly above it.
func percentile(sorted []float64, pct int) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := (n*pct + 99) / 100 // ceil(n*pct/100), 1-based
	rank = max(1, min(rank, n))
	return sorted[rank-1], n - rank
}

// latencySummary is the median and p95 of one operation kind.
type latencySummary struct {
	n        int
	p50, p95 float64
	beyond   int // samples above p95
}

// summarize sorts ms in place and reports its median and p95; it fails
// when the p95 has fewer than minBeyond samples above it.
func summarize(name string, ms []float64) (latencySummary, error) {
	sort.Float64s(ms)
	s := latencySummary{n: len(ms)}
	s.p50, _ = percentile(ms, 50)
	s.p95, s.beyond = percentile(ms, 95)
	if s.beyond < minBeyond {
		return s, fmt.Errorf("%s: p95 over %d samples has %d beyond it, need %d",
			name, s.n, s.beyond, minBeyond)
	}
	return s, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m, _ := percentile(s, 50)
	return m
}

// errShed marks an operation the system refused under load (HTTP 503).
var errShed = errors.New("shed")

// opCounts tallies operations for error_frac. An operation counts once
// as an error when it failed, was shed, or ran out of retries; one that
// succeeded after a retry is not an error, only a retry.
type opCounts struct {
	attempted, failed, shed, exhausted, retried int64
}

// run executes op up to attempts times while it returns an error
// retryable accepts, and records the outcome.
func (c *opCounts) run(attempts int, retryable func(error) bool, op func() error) error {
	c.attempted++
	var err error
	for try := 1; ; try++ {
		if err = op(); err == nil {
			return nil
		}
		if !retryable(err) {
			break
		}
		if try == attempts {
			c.exhausted++
			return err
		}
		c.retried++
	}
	if errors.Is(err, errShed) {
		c.shed++
	} else {
		c.failed++
	}
	return err
}

func (c *opCounts) add(o opCounts) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.shed += o.shed
	c.exhausted += o.exhausted
	c.retried += o.retried
}

func (c opCounts) errors() int64 { return c.failed + c.shed + c.exhausted }

func (c opCounts) errorFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.errors()) / float64(c.attempted)
}

// clock abstracts time for the open-loop pacer so tests can drive it.
type clock interface {
	now() time.Time
	sleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) now() time.Time { return time.Now() }

func (realClock) sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// schedule is an open loop: operation i is due at start + i*period no
// matter how long earlier operations took. Workers share one schedule.
type schedule struct {
	start  time.Time
	period time.Duration
	end    time.Time
	next   atomic.Int64
}

// take claims the next operation; ok is false once it would be due at or
// after end.
func (s *schedule) take() (i int64, due time.Time, ok bool) {
	i = s.next.Add(1) - 1
	due = s.start.Add(time.Duration(i) * s.period)
	return i, due, due.Before(s.end)
}

// paced is one open-loop operation's timing. Latency runs from the due
// time, so a stall is charged to every operation queued behind it; late
// is how far behind schedule the operation was sent.
type paced struct {
	i       int64
	due     time.Time
	latency time.Duration
	late    time.Duration
	err     error
}

// runPaced is one open-loop worker: it claims due operations from s
// until the schedule ends or op reports stop, and hands each timing to
// record.
func runPaced(clk clock, s *schedule, op func(i int64) (stop bool, err error), record func(paced)) {
	for {
		i, due, ok := s.take()
		if !ok {
			return
		}
		clk.sleepUntil(due)
		sent := clk.now()
		stop, err := op(i)
		done := clk.now()
		record(paced{i: i, due: due, latency: done.Sub(due), late: sent.Sub(due), err: err})
		if stop {
			return
		}
	}
}

// floatTolerance bounds the relative difference that re-associated
// floating-point sums (parallel partial aggregates) may show.
const floatTolerance = 1e-9

// checkRows compares a query's rows with the oracle's. Row order is
// compared only when the query orders its output; float cells match
// within floatTolerance.
func checkRows(want, got [][]string, ordered bool) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	if rowsEqual(want, got) {
		return nil
	}
	w, g := want, got
	if !ordered {
		w, g = canonical(want), canonical(got)
	}
	for i := range w {
		if len(w[i]) != len(g[i]) {
			return fmt.Errorf("row %d has %d cells, oracle has %d", i, len(g[i]), len(w[i]))
		}
		for j := range w[i] {
			if !cellsMatch(w[i][j], g[i][j]) {
				return fmt.Errorf("row %d cell %d is %q, oracle has %q", i, j, g[i][j], w[i][j])
			}
		}
	}
	return nil
}

func rowsEqual(a, b [][]string) bool {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// canonical sorts a copy of rows by their joined cells. Float cells that
// differ only in trailing digits still sort to the same index because
// the grouping or key cells lead every row.
func canonical(rows [][]string) [][]string {
	out := append([][]string(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i], "\x00") < strings.Join(out[j], "\x00")
	})
	return out
}

func cellsMatch(a, b string) bool {
	if a == b {
		return true
	}
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA != nil || errB != nil {
		return false
	}
	scale := max(1, abs(fa), abs(fb))
	return abs(fa-fb) <= floatTolerance*scale
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
