package main

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tde"
)

// reader runs checked reads through Database.QueryContext.
type reader struct {
	db      *tde.Database
	qopt    tde.QueryOptions
	classes [][]query
	// deck lists the class indexes of one round of a closed loop; nil
	// runs each class once per round.
	deck []int
	tr   *tracer
	acc  *layerAcc
}

// read runs q once and checks its answer. A traced read records a
// QueryContext span with the operators under it.
func (r *reader) read(ctx context.Context, q query) (time.Duration, error) {
	req := r.tr.request()
	start := time.Now()
	res, err := r.db.QueryContext(ctx, q.sql, r.qopt)
	end := time.Now()
	if err != nil {
		return 0, err
	}
	if err := checkAnswer(q, res.Rows); err != nil {
		return 0, err
	}
	if r.acc != nil {
		id := r.tr.add(span{name: "tde.QueryContext(" + q.class + ")", cat: "bench",
			start: sinceNs(start), end: sinceNs(end), req: req})
		if _, err := r.acc.addRead(r.tr, id, req, res.Plan, res.Stats(), res.ExplainAnalyze(),
			int64(end.Sub(start))); err != nil {
			return 0, err
		}
	}
	return end.Sub(start), nil
}

// warm runs every instance once, untimed, so lazy set-up and the decode
// cache settle before timing; it also checks every answer once.
func (r *reader) warm(ctx context.Context) error {
	for _, cl := range r.classes {
		for _, q := range cl {
			if _, err := r.read(ctx, q); err != nil {
				return err
			}
		}
	}
	return nil
}

// closedLoop runs clients readers, each sending its next query when the
// previous one returned, until d has passed and, when minReads > 0, at
// least minReads reads completed (giving up at 2d). Each client walks
// the round's deck of query classes in a freshly shuffled order, so
// every class gets its fixed share, and picks a random instance of each.
func closedLoop(ctx context.Context, seed int64, clients int, d time.Duration, minReads int,
	r *reader) (*phaseResult, error) {
	var (
		mu      sync.Mutex
		ph      = &phaseResult{}
		done    atomic.Int64
		stopped atomic.Bool
		firstEr error
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline, hardDeadline := start.Add(d), start.Add(2*d)
	more := func() bool {
		now := time.Now()
		if stopped.Load() || now.After(hardDeadline) {
			return false
		}
		return now.Before(deadline) || (minReads > 0 && done.Load() < int64(minReads))
	}
	deck := r.deck
	if deck == nil {
		for i := range r.classes {
			deck = append(deck, i)
		}
	}
	s := startSampler(20*time.Millisecond, nil)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			var lat []float64
			byClass := map[string][]float64{}
			var ops opCounts
			var err error
			for more() {
				for _, di := range rng.Perm(len(deck)) {
					cl := r.classes[deck[di]]
					q := cl[rng.Intn(len(cl))]
					var took time.Duration
					err = ops.run(1, func(error) bool { return false }, func() (err error) {
						took, err = r.read(ctx, q)
						return err
					})
					var mm *mismatchError
					if errors.As(err, &mm) {
						stopped.Store(true)
						break
					}
					if err == nil {
						lat = append(lat, ms(took))
						byClass[q.class] = append(byClass[q.class], ms(took))
						done.Add(1)
					}
					if !more() {
						break
					}
				}
				if stopped.Load() {
					break
				}
			}
			mu.Lock()
			defer mu.Unlock()
			ph.reads = append(ph.reads, lat...)
			ph.addClasses(byClass)
			ph.ops.add(ops)
			var mm *mismatchError
			if errors.As(err, &mm) && firstEr == nil {
				firstEr = err
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.heapPeak = s.finish()
	return ph, firstEr
}
