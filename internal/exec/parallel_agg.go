package exec

import (
	"fmt"
	"sync"

	"tde/internal/vec"
)

// ParallelAggregate is the morsel-parallel grouping operator: N workers
// pull blocks from the shared child (the morsel dispenser), each folding
// its morsels into a private aggCore, and Open merges the partials into
// one result — Exchange → PartialAgg → MergeAgg collapsed into a single
// stop-and-go operator. The workers share the query's memory budget
// through the (atomic) QueryCtx accountant, and each checks cancellation
// once per block like any serial operator.
//
// Workers run the mode chooseAggMode picks for the serial Aggregate,
// except ordered: the key domains behind the direct mode are
// column-wide, so they hold for any morsel subset, but sorted runs do not
// survive the split. The strategic planner therefore prefers the serial
// Aggregate when ordered aggregation applies.
type ParallelAggregate struct {
	OpInstr
	child   Operator
	keyCols []int
	specs   []AggSpec
	workers int
	schema  []ColInfo

	// EncodedOff mirrors Aggregate.EncodedOff.
	EncodedOff bool

	core   *aggCore // merged partials, valid after Open
	emitAt int

	// spill-to-disk degradation state (shared by all workers)
	qc *QueryCtx
	sp *aggSpill
	em *aggSpillEmitter
}

// NewParallelAggregate groups child by keyCols with the given worker
// count (minimum 1).
func NewParallelAggregate(child Operator, keyCols []int, specs []AggSpec, workers int) *ParallelAggregate {
	if workers < 1 {
		workers = 1
	}
	return &ParallelAggregate{
		child:   child,
		keyCols: keyCols,
		specs:   specs,
		workers: workers,
		schema:  aggSchema(child.Schema(), keyCols, specs),
	}
}

// Schema implements Operator.
func (p *ParallelAggregate) Schema() []ColInfo { return p.schema }

// OpKind implements Instrumented.
func (p *ParallelAggregate) OpKind() string { return "ParallelAggregate" }

// OpChildren implements Instrumented.
func (p *ParallelAggregate) OpChildren() []Operator { return []Operator{p.child} }

// Workers returns the configured worker count.
func (p *ParallelAggregate) Workers() int { return p.workers }

// NumGroups returns the merged group count (valid after Open).
func (p *ParallelAggregate) NumGroups() int {
	if p.core == nil {
		return 0
	}
	return len(p.core.groups)
}

// Open implements Operator: runs the full partial-aggregate/merge
// pipeline, stop-and-go.
func (p *ParallelAggregate) Open(qc *QueryCtx) (err error) {
	start := p.beginOpen(qc, "ParallelAggregate")
	defer p.endOpen(start)
	p.qc = qc
	p.emitAt = 0
	defer func() {
		if err != nil {
			p.cleanup()
		}
	}()
	if err := p.child.Open(qc); err != nil {
		return err
	}
	defer p.child.Close()
	in := p.child.Schema()
	if qc.SpillEnabled() {
		p.sp = newAggSpill(qc, "ParallelAggregate", &p.st.Spill, in, p.keyCols, p.specs)
	}

	cores := make([]*aggCore, p.workers)
	release := func() {
		for _, c := range cores {
			if c != nil {
				c.release(qc)
			}
		}
	}
	newCores := func(mode AggMode) error {
		for i := range cores {
			c, err := newAggCore(in, p.keyCols, p.specs, mode, p.EncodedOff, "ParallelAggregate", qc)
			if err != nil {
				release()
				clear(cores)
				return err
			}
			cores[i] = c
		}
		return nil
	}
	mode := chooseAggMode(in, p.keyCols, AggAuto, p.EncodedOff, false)
	err = newCores(mode)
	if err != nil && mode == AggDirect && spillableErr(qc, err) {
		// The direct tables blow the budget: every worker runs hash,
		// which can evict.
		err = newCores(AggHash)
	}
	if err != nil {
		return err
	}
	name := func() string {
		n := cores[0].modeName()
		for _, c := range cores[1:] {
			if c.modeName() != n {
				return AggHash.String() // some worker's direct mode degraded
			}
		}
		return n
	}
	p.st.SetRoutine(fmt.Sprintf("%s(workers=%d)", name(), p.workers))

	var (
		childMu  sync.Mutex // serializes Next on the shared child
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	loadErr := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr
	}
	// pull fetches the next morsel under the child mutex; the deferred
	// unlock keeps the dispenser usable even if the child panics.
	pull := func(b *vec.Block) (bool, error) {
		childMu.Lock()
		defer childMu.Unlock()
		return p.child.Next(b)
	}

	for i := 0; i < p.workers; i++ {
		wg.Add(1)
		go func(core *aggCore) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					setErr(fmt.Errorf("exec: parallel aggregation worker panicked: %v", r))
				}
			}()
			b := vec.NewBlock(len(in))
			for {
				if err := qc.Err(); err != nil {
					setErr(err)
					return
				}
				if loadErr() != nil {
					return // another worker failed; stop pulling
				}
				ok, err := pull(b)
				if err != nil {
					setErr(err)
					return
				}
				if !ok {
					return
				}
				if err := core.consumeBlock(qc, b); err != nil {
					if p.sp != nil && spillableErr(qc, err) {
						// evict this worker's partial groups and keep
						// pulling morsels
						if serr := p.sp.evict(core); serr != nil {
							setErr(serr)
							return
						}
						continue
					}
					setErr(err)
					return
				}
			}
		}(cores[i])
	}
	wg.Wait()
	if err := loadErr(); err != nil {
		release()
		return err
	}
	runBlocks := 0
	for _, c := range cores {
		runBlocks += c.runBlocks
	}
	routine := fmt.Sprintf("%s(workers=%d)", name(), p.workers)
	if runBlocks > 0 {
		// Run-encoded blocks survived the exchange into the workers: report
		// the encoded routine like the serial Aggregate does.
		routine = "rle-agg+" + routine
	}
	p.st.SetRoutine(routine)

	merged := cores[0]
	for _, c := range cores[1:] {
		if err := merged.mergeFrom(c, qc); err != nil {
			if p.sp == nil || !spillableErr(qc, err) {
				release()
				return err
			}
			// merged already holds this partial's groups (mergeFrom folds
			// before charging): evict the union and carry on merging
			if serr := p.sp.evict(merged); serr != nil {
				release()
				return serr
			}
		}
		c.release(qc) // the partial's memory is garbage after the merge
	}
	merged.finish()
	cores = nil // merged's charge is owned by p.core / the emitter below
	if p.sp != nil && p.sp.spilled {
		work, err := p.sp.finishConsume(merged)
		if err != nil {
			merged.release(qc)
			return err
		}
		merged.release(qc)
		p.em = &aggSpillEmitter{sp: p.sp, out: p.schema, work: work}
		return nil
	}
	p.core = merged
	return nil
}

// Next implements Operator: emits one block of merged groups.
func (p *ParallelAggregate) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := p.next(b)
	p.endNext(start, b, ok && err == nil)
	return ok, err
}

func (p *ParallelAggregate) next(b *vec.Block) (bool, error) {
	if p.em != nil {
		return p.em.next(b)
	}
	n := p.core.emit(b, p.emitAt, p.schema)
	if n == 0 {
		return false, nil
	}
	p.emitAt += n
	return true, nil
}

// Close implements Operator.
func (p *ParallelAggregate) Close() error {
	p.cleanup()
	return nil
}

// cleanup releases the merged core's charges and removes any spill files
// this operator still owns.
func (p *ParallelAggregate) cleanup() {
	if p.core != nil {
		p.core.release(p.qc)
		p.core = nil
	}
	if p.em != nil {
		p.em.close()
		p.em = nil
	}
	if p.sp != nil {
		p.sp.cleanup()
		p.sp = nil
	}
}
