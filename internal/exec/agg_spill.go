package exec

import (
	"io"
	"sort"
	"sync"

	"tde/internal/heap"
	"tde/internal/spill"
	"tde/internal/types"
	"tde/internal/vec"
)

// This file implements graceful degradation for hash aggregation: when
// the accountant denies a charge, the in-memory groups are decomposed
// into partial rows, partitioned by a content hash of their keys, and
// evicted to compressed spill files. After the input is drained, each
// partition is folded back into a fresh hash core one at a time (its
// groups fit where the whole table did not); a partition that still does
// not fit is recursively re-partitioned with a deeper hash salt, and at
// spillMaxDepth — where re-hashing can no longer separate a dominant key
// — a merge-based fallback sorts the partial rows by key content and
// folds one group at a time, its COUNTD/MEDIAN values through a
// valueSpool (agg_spool.go).
//
// Partial-row layout: the group's key columns followed by fixed-size
// accumulator fields per aggregate spec. Groups carrying per-input-row
// state (COUNTD's distinct set, MEDIAN's value list) explode into one row
// per retained value; the fixed fields ride on row 0 and are neutral
// (zero) on the others, so folding is plain associative accumulation.
//
// ENOSPC ladder: in-memory → partitioned spill → (on a disk write
// failure or spill-budget denial) a serial pass that spools every
// eviction to a single file at a time and folds all spilled rows as one
// partition → typed error.

// aggFieldCount returns how many partial-row columns spec s occupies.
func aggFieldCount(s AggSpec) int {
	if s.Col < 0 {
		return 1 // COUNT(*): [count]
	}
	switch s.Func {
	case Count:
		return 1 // [count]
	case Sum, Avg:
		return 3 // [count, sumI, sumF]
	case Min, Max:
		return 2 // [seen, val]
	case CountD:
		return 2 // [present, val]
	default: // Median
		return 2 // [present, bits]
	}
}

// aggFieldSpecs returns the spill column specs for spec s's fields.
func aggFieldSpecs(in []ColInfo, s AggSpec) []spill.ColSpec {
	count := spill.ColSpec{Sentinel: types.NullToken}
	if s.Col < 0 {
		return []spill.ColSpec{count}
	}
	t := in[s.Col].Type
	switch s.Func {
	case Count:
		return []spill.ColSpec{count}
	case Sum, Avg:
		return []spill.ColSpec{count,
			{Signed: true, Sentinel: types.NullToken},
			{Sentinel: types.NullToken}}
	case Min, Max:
		val := spill.ColSpec{Signed: signedType(t), Sentinel: types.NullBits(t)}
		if t == types.String {
			val = spill.ColSpec{Str: true, Sentinel: types.NullToken, Collation: collationOf(in[s.Col])}
		}
		return []spill.ColSpec{count, val} // count slot doubles as the seen flag
	case CountD:
		val := spill.ColSpec{Sentinel: types.NullToken}
		if t == types.String {
			val = spill.ColSpec{Str: true, Sentinel: types.NullToken, Collation: collationOf(in[s.Col])}
		}
		return []spill.ColSpec{count, val}
	default: // Median
		return []spill.ColSpec{count,
			{Signed: signedType(t), Sentinel: types.NullBits(t)}}
	}
}

// aggPartition is one unit of fold work: the files holding one hash
// bucket's partial rows.
type aggPartition struct {
	depth int
	paths []string
}

// aggSpill owns the spilled state of one aggregation operator. Parallel
// aggregation workers share one; evictions serialize on mu.
type aggSpill struct {
	qc      *QueryCtx
	op      string
	in      []ColInfo
	keyCols []int
	aspecs  []AggSpec

	rowSpecs []spill.ColSpec // keys then per-spec fields
	fieldAt  []int           // spec j's first field column
	mgr      *spill.Manager
	stats    *OpSpillStats

	mu       sync.Mutex
	parts    [spillFanout][]string
	serial   []string // diskFull single-spool files
	diskFull bool
	spilled  bool
}

func newAggSpill(qc *QueryCtx, op string, stats *OpSpillStats, in []ColInfo, keyCols []int, specs []AggSpec) *aggSpill {
	sp := &aggSpill{qc: qc, op: op, in: in, keyCols: keyCols, aspecs: specs,
		mgr: qc.SpillManager(), stats: stats}
	for _, kc := range keyCols {
		sp.rowSpecs = append(sp.rowSpecs, spillSpecFor(in[kc]))
	}
	at := len(keyCols)
	for _, s := range specs {
		sp.fieldAt = append(sp.fieldAt, at)
		fs := aggFieldSpecs(in, s)
		sp.rowSpecs = append(sp.rowSpecs, fs...)
		at += len(fs)
	}
	return sp
}

// evict moves every group of core to partition files and resets core to
// empty, returning its memory to the accountant (the direct table, which
// stays allocated, keeps its charge).
func (sp *aggSpill) evict(core *aggCore) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	core.finish()
	if len(core.groups) == 0 {
		return nil
	}
	sp.spilled = true
	sp.stats.AddSpill()
	if !sp.diskFull {
		err := sp.writeGroups(core, spillFanout)
		if err == nil {
			core.resetAfterEvict(sp.qc)
			return nil
		}
		if !diskErr(err) {
			return err
		}
		// The disk side gave out mid-eviction: degrade to the serial
		// ladder rung — one spool file at a time, folded as one partition.
		sp.diskFull = true
	}
	if err := sp.writeGroups(core, 1); err != nil {
		return err
	}
	core.resetAfterEvict(sp.qc)
	return nil
}

// writeGroups writes core's groups as partial rows across fan partition
// files (fan 1 = the serial spool). On failure every file of this
// attempt is removed, so a torn write never becomes visible to the fold.
func (sp *aggSpill) writeGroups(core *aggCore, fan int) (err error) {
	writers := make([]*spill.Writer, fan)
	defer func() {
		if err != nil {
			for _, w := range writers {
				if w != nil {
					w.Close()
					_ = sp.mgr.Remove(w.Path())
				}
			}
		}
	}()
	row := make([]uint64, len(sp.rowSpecs))
	heaps := make([]*heap.Heap, len(sp.rowSpecs))
	for _, g := range core.groups {
		p := 0
		if fan > 1 {
			h := newSpillHasher(0)
			for j, kc := range sp.keyCols {
				h.fold(spillValHash(g.keys[j], sp.rowSpecs[j].Str, sp.rowSpecs[j].Collation, core.strHeaps[kc]))
			}
			p = h.part()
		}
		w := writers[p]
		if w == nil {
			if w, err = sp.mgr.NewWriter(sp.rowSpecs, &sp.stats.IO); err != nil {
				return err
			}
			writers[p] = w
		}
		if err = sp.appendGroup(w, core, g, row, heaps); err != nil {
			return err
		}
	}
	for p := 0; p < fan; p++ {
		w := writers[p]
		if w == nil {
			continue
		}
		if err = w.Close(); err != nil {
			return err
		}
		if fan > 1 {
			sp.parts[p] = append(sp.parts[p], w.Path())
		} else {
			sp.serial = append(sp.serial, w.Path())
		}
		sp.stats.AddPartitions(1)
	}
	writers = nil // all closed and registered: nothing for the deferred cleanup
	return nil
}

// appendGroup explodes one group into partial rows and appends them.
func (sp *aggSpill) appendGroup(w *spill.Writer, core *aggCore, g *group, row []uint64, heaps []*heap.Heap) error {
	rows := 1
	var dvals [][]uint64
	for j, s := range sp.aspecs {
		switch s.Func {
		case CountD:
			if s.Col < 0 {
				continue
			}
			d := make([]uint64, 0, len(g.accs[j].distinct))
			for v := range g.accs[j].distinct {
				d = append(d, v)
			}
			if dvals == nil {
				dvals = make([][]uint64, len(sp.aspecs))
			}
			dvals[j] = d
			if len(d) > rows {
				rows = len(d)
			}
		case Median:
			if s.Col >= 0 && len(g.accs[j].all) > rows {
				rows = len(g.accs[j].all)
			}
		}
	}
	for j, kcol := range sp.keyCols {
		if sp.rowSpecs[j].Str {
			heaps[j] = core.strHeaps[kcol]
		}
	}
	for j, s := range sp.aspecs {
		if s.Col >= 0 && (s.Func == Min || s.Func == Max || s.Func == CountD) &&
			sp.rowSpecs[sp.fieldAt[j]+1].Str {
			heaps[sp.fieldAt[j]+1] = core.strHeaps[s.Col]
		}
	}
	for r := 0; r < rows; r++ {
		for j := range sp.keyCols {
			row[j] = g.keys[j]
		}
		for j, s := range sp.aspecs {
			ac := &g.accs[j]
			at := sp.fieldAt[j]
			if s.Col < 0 || s.Func == Count {
				row[at] = 0
				if r == 0 {
					row[at] = uint64(ac.count)
				}
				continue
			}
			switch s.Func {
			case Sum, Avg:
				row[at], row[at+1], row[at+2] = 0, 0, 0
				if r == 0 {
					row[at] = uint64(ac.count)
					row[at+1] = uint64(ac.sumI)
					row[at+2] = types.FromReal(ac.sumF)
				}
			case Min, Max:
				row[at], row[at+1] = 0, sp.rowSpecs[at+1].Sentinel
				if r == 0 && ac.seen {
					row[at] = 1
					if s.Func == Min {
						row[at+1] = ac.minB
					} else {
						row[at+1] = ac.maxB
					}
				}
			case CountD:
				row[at], row[at+1] = 0, sp.rowSpecs[at+1].Sentinel
				if d := dvals[j]; r < len(d) {
					row[at], row[at+1] = 1, d[r]
				}
			case Median:
				row[at], row[at+1] = 0, 0
				if r < len(ac.all) {
					row[at], row[at+1] = 1, ac.all[r]
				}
			}
		}
		if err := w.Append(row, heaps); err != nil {
			return err
		}
	}
	return nil
}

// foldRow folds one spilled partial row into core and returns its group.
// val and strHeap resolve the row's columns (chunk-local tokens for
// strings); keys is scratch for the re-interned key tuple. With spools
// (the merge fallback), COUNTD and MEDIAN values go to spec j's spool
// instead of the group.
func (sp *aggSpill) foldRow(core *aggCore, val func(c int) uint64, strHeap func(c int) *heap.Heap,
	keys []uint64, spools []*valueSpool) *group {
	for j, kcol := range sp.keyCols {
		v := val(j)
		if sp.rowSpecs[j].Str && v != types.NullToken {
			v = core.strAccs[kcol].Intern(strHeap(j).Get(v))
		}
		keys[j] = v
	}
	g := core.findGroupKeys(keys)
	for j, s := range sp.aspecs {
		ac := &g.accs[j]
		at := sp.fieldAt[j]
		if s.Col < 0 || s.Func == Count {
			ac.count += int64(val(at))
			continue
		}
		switch s.Func {
		case Sum, Avg:
			ac.count += int64(val(at))
			ac.sumI += int64(val(at + 1))
			ac.sumF += types.ToReal(val(at + 2))
		case Min, Max:
			if val(at) == 0 {
				break
			}
			v := val(at + 1)
			t := sp.in[s.Col].Type
			if t == types.String {
				v = core.strAccs[s.Col].Intern(strHeap(at + 1).Get(v))
				h := core.strHeaps[s.Col]
				if !ac.seen {
					ac.minB, ac.maxB, ac.seen = v, v, true
					break
				}
				if h.Compare(v, ac.minB) < 0 {
					ac.minB = v
				}
				if h.Compare(v, ac.maxB) > 0 {
					ac.maxB = v
				}
				break
			}
			if !ac.seen {
				ac.minB, ac.maxB, ac.seen = v, v, true
				break
			}
			if types.Compare(t, v, ac.minB) < 0 {
				ac.minB = v
			}
			if types.Compare(t, v, ac.maxB) > 0 {
				ac.maxB = v
			}
		case CountD:
			if val(at) == 0 {
				break
			}
			v := val(at + 1)
			if spools != nil {
				spools[j].add(v, strHeap(at+1))
				break
			}
			if sp.rowSpecs[at+1].Str && v != types.NullToken {
				v = core.strAccs[s.Col].Intern(strHeap(at + 1).Get(v))
			}
			ac.distinct[v] = struct{}{}
		case Median:
			if val(at) == 0 {
				break
			}
			if spools != nil {
				spools[j].add(val(at+1), nil)
				break
			}
			ac.count++
			ac.all = append(ac.all, val(at+1))
		}
	}
	return g
}

// foldChunk folds one spilled chunk into core and charges the growth,
// mirroring consumeBlock's cost model.
func (sp *aggSpill) foldChunk(core *aggCore, ch *spill.Chunk) error {
	before := len(core.groups)
	keys := make([]uint64, len(sp.keyCols))
	for r := 0; r < ch.Rows; r++ {
		sp.foldRow(core,
			func(c int) uint64 { return ch.Cols[c].Values[r] },
			func(c int) *heap.Heap { return ch.Cols[c].Heap },
			keys, nil)
	}
	grown := core.strBytes()
	cost := (len(core.groups)-before)*core.groupCost + ch.Rows*core.perRow + (grown - core.heapBytes)
	core.heapBytes = grown
	if err := sp.qc.Charge(sp.op, cost); err != nil {
		return err
	}
	core.charged += cost
	return nil
}

// split re-partitions p's rows with a deeper hash salt, consuming p's
// files.
func (sp *aggSpill) split(p aggPartition) (subs []aggPartition, err error) {
	sp.stats.NoteDepth(p.depth + 1)
	writers := make([]*spill.Writer, spillFanout)
	defer func() {
		if err != nil {
			for _, w := range writers {
				if w != nil {
					w.Close()
					_ = sp.mgr.Remove(w.Path())
				}
			}
		}
	}()
	row := make([]uint64, len(sp.rowSpecs))
	heaps := make([]*heap.Heap, len(sp.rowSpecs))
	for _, path := range p.paths {
		r, rerr := sp.mgr.OpenReader(path, &sp.stats.IO)
		if rerr != nil {
			return nil, rerr
		}
		for {
			ch, cerr := r.Next()
			if cerr == io.EOF {
				break
			}
			if cerr != nil {
				r.Close()
				return nil, cerr
			}
			for i := 0; i < ch.Rows; i++ {
				h := newSpillHasher(p.depth + 1)
				for j := range sp.keyCols {
					h.fold(spillValHash(ch.Cols[j].Values[i], sp.rowSpecs[j].Str, sp.rowSpecs[j].Collation, ch.Cols[j].Heap))
				}
				b := h.part()
				w := writers[b]
				if w == nil {
					if w, err = sp.mgr.NewWriter(sp.rowSpecs, &sp.stats.IO); err != nil {
						r.Close()
						return nil, err
					}
					writers[b] = w
				}
				for c := range sp.rowSpecs {
					row[c] = ch.Cols[c].Values[i]
					if sp.rowSpecs[c].Str {
						heaps[c] = ch.Cols[c].Heap
					}
				}
				if err = w.Append(row, heaps); err != nil {
					r.Close()
					return nil, err
				}
			}
		}
		r.Close()
	}
	for _, w := range writers {
		if w == nil {
			continue
		}
		if err = w.Close(); err != nil {
			return nil, err
		}
		subs = append(subs, aggPartition{depth: p.depth + 1, paths: []string{w.Path()}})
		sp.stats.AddPartitions(1)
	}
	writers = nil
	for _, path := range p.paths {
		_ = sp.mgr.Remove(path)
	}
	return subs, nil
}

// finishConsume evicts the remaining groups and freezes the fold work
// list. Under the diskFull ladder every spilled row folds as a single
// partition that is never split further.
func (sp *aggSpill) finishConsume(core *aggCore) ([]aggPartition, error) {
	if err := sp.evict(core); err != nil {
		return nil, err
	}
	if sp.diskFull {
		var all []string
		for _, b := range sp.parts {
			all = append(all, b...)
		}
		all = append(all, sp.serial...)
		return []aggPartition{{depth: spillMaxDepth, paths: all}}, nil
	}
	var work []aggPartition
	for _, b := range sp.parts {
		if len(b) > 0 {
			work = append(work, aggPartition{depth: 0, paths: b})
		}
	}
	return work, nil
}

// cleanup removes every spill file still registered with this operator's
// partitions (the query-level manager sweep would also catch them).
func (sp *aggSpill) cleanup() {
	for i, b := range sp.parts {
		for _, path := range b {
			_ = sp.mgr.Remove(path)
		}
		sp.parts[i] = nil
	}
	for _, path := range sp.serial {
		_ = sp.mgr.Remove(path)
	}
	sp.serial = nil
}

// resetAfterEvict drops the group state after its groups were spilled,
// keeping the direct table and the memo slices (still allocated and
// charged), minting fresh string heaps and emptying the memos.
func (c *aggCore) resetAfterEvict(qc *QueryCtx) {
	c.groups = nil
	if c.lookup != nil {
		c.lookup = make(map[uint64][]int)
	}
	for i := range c.direct {
		c.direct[i] = 0
	}
	c.freshHeaps()
	c.heapBytes = 0
	kept := c.directCharge + c.memoCharge
	qc.Release(c.charged - kept)
	c.charged = kept
}

// aggSpillEmitter replaces the in-memory emit path after a spill: it
// folds one partition at a time into a fresh core and emits its groups,
// recursing into splits and the merge fallback as the budget dictates.
type aggSpillEmitter struct {
	sp     *aggSpill
	out    []ColInfo
	work   []aggPartition
	core   *aggCore
	emitAt int
	merge  *aggMergeEmit
}

func (e *aggSpillEmitter) next(b *vec.Block) (bool, error) {
	for {
		if e.merge != nil {
			ok, err := e.merge.next(b)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
			e.merge.close()
			e.merge = nil
		}
		if e.core != nil {
			if n := e.core.emit(b, e.emitAt, e.out); n > 0 {
				e.emitAt += n
				return true, nil
			}
			e.core.release(e.sp.qc)
			e.core = nil
		}
		if len(e.work) == 0 {
			return false, nil
		}
		p := e.work[0]
		e.work = e.work[1:]
		if err := e.foldPartition(p); err != nil {
			return false, err
		}
	}
}

// foldPartition folds p into a fresh hash core, or — when even one
// partition's groups exceed the budget — splits it (depth permitting)
// or degrades to the merge fallback.
func (e *aggSpillEmitter) foldPartition(p aggPartition) error {
	sp := e.sp
	core, err := newAggCore(sp.in, sp.keyCols, sp.aspecs, AggHash, false, sp.op, sp.qc)
	if err != nil {
		return err
	}
	for _, path := range p.paths {
		r, err := sp.mgr.OpenReader(path, &sp.stats.IO)
		if err != nil {
			core.release(sp.qc)
			return err
		}
		for {
			ch, cerr := r.Next()
			if cerr == io.EOF {
				break
			}
			if cerr == nil {
				cerr = sp.foldChunk(core, ch)
				if cerr == nil {
					continue
				}
			}
			r.Close()
			core.release(sp.qc)
			if !spillableErr(sp.qc, cerr) {
				return cerr
			}
			if p.depth < spillMaxDepth && !sp.diskFull {
				subs, serr := sp.split(p)
				if serr == nil {
					e.work = append(subs, e.work...)
					return nil
				}
				if !diskErr(serr) {
					return serr
				}
				sp.diskFull = true
			}
			return e.startMerge(p)
		}
		r.Close()
	}
	for _, path := range p.paths {
		_ = sp.mgr.Remove(path)
	}
	core.finish()
	e.core = core
	e.emitAt = 0
	return nil
}

func (e *aggSpillEmitter) close() {
	if e.core != nil {
		e.core.release(e.sp.qc)
		e.core = nil
	}
	if e.merge != nil {
		e.merge.close()
		e.merge = nil
	}
	for _, p := range e.work {
		for _, path := range p.paths {
			_ = e.sp.mgr.Remove(path)
		}
	}
	e.work = nil
}

// aggMergeEmit is the depth-cap fallback: the partition's partial rows
// are externally sorted by key content and folded one group at a time —
// a group is the only state held, so a dominant key that re-hashing
// cannot split still aggregates in bounded memory. A group's own
// COUNTD/MEDIAN values pass through spools, which sort them externally
// when even that one group's state exceeds the budget.
type aggMergeEmit struct {
	sp      *aggSpill
	out     []ColInfo
	spools  []*valueSpool // per spec; nil entries for the fixed-size ones
	cursors []*mergeCursor
	prevV   []uint64
	prevS   []string
	prevNul []bool
	have    bool
}

// startMerge sorts p's rows into runs and opens the merge.
func (e *aggSpillEmitter) startMerge(p aggPartition) error {
	sp := e.sp
	sp.stats.AddSpill()
	m := &aggMergeEmit{sp: sp, out: e.out,
		spools:  make([]*valueSpool, len(sp.aspecs)),
		prevV:   make([]uint64, len(sp.keyCols)),
		prevS:   make([]string, len(sp.keyCols)),
		prevNul: make([]bool, len(sp.keyCols))}
	var stateful []int
	for j, s := range sp.aspecs {
		if s.Col >= 0 && (s.Func == CountD || s.Func == Median) {
			stateful = append(stateful, j)
		}
	}
	for _, j := range stateful {
		m.spools[j] = newValueSpool(sp, j, len(stateful))
	}

	nc := len(sp.rowSpecs)
	var runs []string
	var rows [][]uint64
	hs := make([]*heap.Heap, nc)
	accs := make([]*heap.Accelerator, nc)
	resetHeaps := func() {
		for c, s := range sp.rowSpecs {
			if s.Str {
				hs[c] = heap.New(s.Collation)
				accs[c] = heap.NewAccelerator(hs[c], 0)
			}
		}
	}
	resetHeaps()
	charged, heapBytes := 0, 0
	release := func() {
		sp.qc.Release(charged)
		charged = 0
	}
	flush := func() error {
		if len(rows) == 0 {
			return nil
		}
		sort.SliceStable(rows, func(a, b int) bool {
			return sp.keyRowLess(rows[a], rows[b], hs)
		})
		w, err := sp.mgr.NewWriter(sp.rowSpecs, &sp.stats.IO)
		if err != nil {
			return err
		}
		for _, row := range rows {
			if err := w.Append(row, hs); err != nil {
				w.Close()
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		runs = append(runs, w.Path())
		sp.stats.AddPartitions(1)
		release()
		heapBytes = 0
		rows = rows[:0]
		resetHeaps()
		return nil
	}
	for _, path := range p.paths {
		r, err := sp.mgr.OpenReader(path, &sp.stats.IO)
		if err != nil {
			release()
			return err
		}
		for {
			ch, cerr := r.Next()
			if cerr == io.EOF {
				break
			}
			if cerr != nil {
				r.Close()
				release()
				return cerr
			}
			for i := 0; i < ch.Rows; i++ {
				row := make([]uint64, nc)
				for c := 0; c < nc; c++ {
					v := ch.Cols[c].Values[i]
					if sp.rowSpecs[c].Str && v != types.NullToken {
						v = accs[c].Intern(ch.Cols[c].Heap.Get(v))
					}
					row[c] = v
				}
				rows = append(rows, row)
			}
			grown := heapSizes(hs)
			cost := ch.Rows*nc*8 + (grown - heapBytes)
			heapBytes = grown
			if err := sp.qc.Charge(sp.op, cost); err != nil {
				if !spillableErr(sp.qc, err) {
					r.Close()
					release()
					return err
				}
				if err := flush(); err != nil {
					r.Close()
					release()
					return err
				}
			} else {
				charged += cost
			}
		}
		r.Close()
	}
	if err := flush(); err != nil {
		release()
		return err
	}
	for _, path := range p.paths {
		_ = sp.mgr.Remove(path)
	}
	for len(runs) > spillMergeFanIn {
		merged, err := mergeRuns(sp.qc, sp.op, sp.mgr, sp.rowSpecs, runs[:spillMergeFanIn], &sp.stats.IO, m.keyLess)
		if err != nil {
			return err
		}
		runs = append([]string{merged}, runs[spillMergeFanIn:]...)
	}
	for _, path := range runs {
		c, err := openMergeCursor(sp.qc, sp.op, sp.mgr, path, &sp.stats.IO)
		if err != nil {
			m.close()
			return err
		}
		m.cursors = append(m.cursors, c)
	}
	e.merge = m
	return nil
}

// keyRowLess orders two buffered partial rows by key content.
func (sp *aggSpill) keyRowLess(a, b []uint64, hs []*heap.Heap) bool {
	for j := range sp.keyCols {
		va, vb := a[j], b[j]
		if sp.rowSpecs[j].Str {
			an, bn := va == types.NullToken, vb == types.NullToken
			if an != bn {
				return an // NULL first
			}
			if an {
				continue
			}
			c := sp.rowSpecs[j].Collation.Compare(hs[j].Get(va), hs[j].Get(vb))
			if c != 0 {
				return c < 0
			}
			continue
		}
		if va != vb {
			return va < vb
		}
	}
	return false
}

// keyLess orders two run cursors by key content (same order as
// keyRowLess, across chunk heaps).
func (m *aggMergeEmit) keyLess(a, b *mergeCursor) bool {
	sp := m.sp
	for j := range sp.keyCols {
		va, vb := a.val(j), b.val(j)
		if sp.rowSpecs[j].Str {
			an, bn := va == types.NullToken, vb == types.NullToken
			if an != bn {
				return an
			}
			if an {
				continue
			}
			c := sp.rowSpecs[j].Collation.Compare(a.strHeap(j).Get(va), b.strHeap(j).Get(vb))
			if c != 0 {
				return c < 0
			}
			continue
		}
		if va != vb {
			return va < vb
		}
	}
	return false
}

// sameKey reports whether cur's row has the captured previous key.
func (m *aggMergeEmit) sameKey(cur *mergeCursor) bool {
	sp := m.sp
	for j := range sp.keyCols {
		v := cur.val(j)
		if sp.rowSpecs[j].Str {
			nul := v == types.NullToken
			if nul != m.prevNul[j] {
				return false
			}
			if nul {
				continue
			}
			if !sp.rowSpecs[j].Collation.Equal(cur.strHeap(j).Get(v), m.prevS[j]) {
				return false
			}
			continue
		}
		if v != m.prevV[j] {
			return false
		}
	}
	return true
}

func (m *aggMergeEmit) captureKey(cur *mergeCursor) {
	sp := m.sp
	for j := range sp.keyCols {
		v := cur.val(j)
		m.prevV[j] = v
		if sp.rowSpecs[j].Str {
			m.prevNul[j] = v == types.NullToken
			if !m.prevNul[j] {
				m.prevS[j] = cur.strHeap(j).Get(v)
			} else {
				m.prevS[j] = ""
			}
		}
	}
}

// mergeGroupCap bounds how many groups one merge emission accumulates
// before the block is cut — small, so the transient core stays cheap.
const mergeGroupCap = 256

// next folds the sorted partial rows into at most mergeGroupCap complete
// groups and emits them as one block.
func (m *aggMergeEmit) next(b *vec.Block) (bool, error) {
	sp := m.sp
	core, err := newAggCore(sp.in, sp.keyCols, sp.aspecs, AggHash, false, sp.op, sp.qc)
	if err != nil {
		return false, err
	}
	fail := func(err error) (bool, error) {
		core.release(sp.qc)
		return false, err
	}
	keys := make([]uint64, len(sp.keyCols))
	count, folded := 0, 0
	var g *group
	m.have = false
	for {
		i := pickMin(m.cursors, m.keyLess)
		if i < 0 {
			break
		}
		cur := m.cursors[i]
		if m.have && !m.sameKey(cur) {
			if err := m.finishGroup(g); err != nil {
				return fail(err)
			}
			g = nil
			count++
			if count >= mergeGroupCap {
				break // leave the new key's rows for the next block
			}
			m.captureKey(cur)
		} else if !m.have {
			m.captureKey(cur)
			m.have = true
		}
		g = sp.foldRow(core,
			func(c int) uint64 { return cur.val(c) },
			func(c int) *heap.Heap { return cur.strHeap(c) },
			keys, m.spools)
		folded++
		if err := cur.advance(); err != nil {
			if !spillableErr(sp.qc, err) {
				return fail(err)
			}
			// The cursor's next chunk does not fit beside the values the
			// spools buffer: spill those and load the chunk again.
			for _, v := range m.spools {
				if v != nil {
					if err := v.flush(); err != nil {
						return fail(err)
					}
				}
			}
			if err := cur.load(); err != nil {
				return fail(err)
			}
		}
		if cur.done {
			cur.close(true)
		}
	}
	if folded == 0 {
		core.release(sp.qc)
		return false, nil
	}
	if err := m.finishGroup(g); err != nil {
		return fail(err)
	}
	cost := len(core.groups)*core.groupCost + heapSizes(core.strHeaps)
	if err := sp.qc.Charge(sp.op, cost); err != nil {
		return fail(err)
	}
	core.charged += cost
	n := core.emit(b, 0, m.out)
	core.release(sp.qc)
	return n > 0, nil
}

// finishGroup stores the spooled aggregates' results into g (nil when
// the group was already finished).
func (m *aggMergeEmit) finishGroup(g *group) error {
	if g == nil {
		return nil
	}
	for j, v := range m.spools {
		if v == nil {
			continue
		}
		res, err := v.result()
		if err != nil {
			return err
		}
		g.accs[j].spooled, g.accs[j].result = true, res
	}
	return nil
}

func (m *aggMergeEmit) close() {
	for _, v := range m.spools {
		if v != nil {
			v.reset()
		}
	}
	for _, c := range m.cursors {
		if c != nil {
			c.close(true)
		}
	}
	m.cursors = nil
}
