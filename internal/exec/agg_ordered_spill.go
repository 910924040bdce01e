package exec

import (
	"io"

	"tde/internal/heap"
	"tde/internal/spill"
	"tde/internal/types"
	"tde/internal/vec"
)

// Ordered aggregation degrades differently from hash aggregation: its
// input arrives grouped, so every group in core.groups is already final
// when the budget denies a charge. Instead of partitioning partial
// state, the spool writes those finished OUTPUT rows to one spill file
// in key order and keeps only the running group in memory. Emission
// replays the spool and then the in-memory tail — key order, and
// therefore the operator's sortedness contract, is preserved.
type orderedSpool struct {
	qc      *QueryCtx
	op      string
	in      []ColInfo
	keyCols []int
	aspecs  []AggSpec
	out     []ColInfo

	mgr   *spill.Manager
	stats *OpSpillStats
	specs []spill.ColSpec

	w    *spill.Writer
	r    *spill.Reader
	path string

	row   []uint64
	heaps []*heap.Heap
}

func newOrderedSpool(qc *QueryCtx, op string, stats *OpSpillStats, in []ColInfo, keyCols []int, aspecs []AggSpec, out []ColInfo) *orderedSpool {
	o := &orderedSpool{qc: qc, op: op, in: in, keyCols: keyCols, aspecs: aspecs, out: out,
		mgr: qc.SpillManager(), stats: stats}
	for _, kc := range keyCols {
		o.specs = append(o.specs, spillSpecFor(in[kc]))
	}
	for _, s := range aspecs {
		t := aggType(s, in)
		if (s.Func == Min || s.Func == Max) && s.Col >= 0 && in[s.Col].Type == types.String {
			o.specs = append(o.specs, spill.ColSpec{Str: true, Sentinel: types.NullToken, Collation: collationOf(in[s.Col])})
			continue
		}
		o.specs = append(o.specs, spill.ColSpec{Signed: signedType(t), Sentinel: types.NullBits(t)})
	}
	o.row = make([]uint64, len(o.specs))
	o.heaps = make([]*heap.Heap, len(o.specs))
	return o
}

// spool writes core's completed groups (NOT the running one) as final
// output rows and resets core to just the running group.
func (o *orderedSpool) spool(core *aggCore) error {
	o.stats.AddSpill()
	if o.w == nil {
		w, err := o.mgr.NewWriter(o.specs, &o.stats.IO)
		if err != nil {
			return err
		}
		o.w = w
		o.path = w.Path()
		o.stats.AddPartitions(1)
	}
	kc := len(o.keyCols)
	for j, kcol := range o.keyCols {
		if o.specs[j].Str {
			o.heaps[j] = core.strHeaps[kcol]
		}
	}
	for j, s := range o.aspecs {
		if o.specs[kc+j].Str {
			o.heaps[kc+j] = core.strHeaps[s.Col]
		}
	}
	for _, g := range core.groups {
		for j := range o.keyCols {
			o.row[j] = g.keys[j]
		}
		for j, s := range o.aspecs {
			srcType := types.Integer
			if s.Col >= 0 {
				srcType = o.in[s.Col].Type
			}
			o.row[kc+j] = finishAcc(&g.accs[j], s, srcType)
		}
		if err := o.w.Append(o.row, o.heaps); err != nil {
			return err
		}
	}
	return core.resetOrderedAfterSpool(o.qc)
}

// finish seals the spool file and opens it for replay.
func (o *orderedSpool) finish() error {
	if o.w == nil {
		return nil
	}
	err := o.w.Close()
	o.w = nil
	if err != nil {
		return err
	}
	r, err := o.mgr.OpenReader(o.path, &o.stats.IO)
	if err != nil {
		return err
	}
	o.r = r
	return nil
}

// next replays one spooled chunk as an output block; (false, nil) when
// the spool is drained (the caller then emits the in-memory tail).
func (o *orderedSpool) next(b *vec.Block) (bool, error) {
	if o.r == nil {
		return false, nil
	}
	ch, err := o.r.Next()
	if err == io.EOF {
		o.r.Close()
		o.r = nil
		_ = o.mgr.Remove(o.path)
		o.path = ""
		return false, nil
	}
	if err != nil {
		return false, err
	}
	ensureVecs(b, len(o.out))
	kc := len(o.keyCols)
	for j, kcol := range o.keyCols {
		v := &b.Vecs[j]
		v.Type = o.in[kcol].Type
		v.Dict = o.in[kcol].Dict
		v.Heap = o.in[kcol].Heap
		if o.specs[j].Str {
			v.Heap = ch.Cols[j].Heap
		}
		copy(v.Data[:ch.Rows], ch.Cols[j].Values)
	}
	for j, s := range o.aspecs {
		v := &b.Vecs[kc+j]
		v.Type = o.out[kc+j].Type
		v.Heap, v.Dict = nil, nil
		if (s.Func == Min || s.Func == Max) && s.Col >= 0 {
			v.Dict = o.in[s.Col].Dict
			v.Heap = o.in[s.Col].Heap
			if o.specs[kc+j].Str {
				v.Heap = ch.Cols[kc+j].Heap
			}
		}
		copy(v.Data[:ch.Rows], ch.Cols[kc+j].Values)
	}
	b.N = ch.Rows
	return true, nil
}

func (o *orderedSpool) close() {
	if o.w != nil {
		o.w.Close()
		o.w = nil
	}
	if o.r != nil {
		o.r.Close()
		o.r = nil
	}
	if o.path != "" {
		_ = o.mgr.Remove(o.path)
		o.path = ""
	}
}

// resetOrderedAfterSpool drops the spooled groups, re-interns the running
// group's string tokens into fresh heaps (emptying the memos), and
// re-charges just the retained state beside the memo slices.
func (c *aggCore) resetOrderedAfterSpool(qc *QueryCtx) error {
	old := make([]*heap.Heap, len(c.strHeaps))
	copy(old, c.strHeaps)
	c.groups = nil
	c.freshHeaps()
	retained := 0
	if c.curSet {
		for j, kc := range c.keyCols {
			if old[kc] != nil && c.cur.keys[j] != types.NullToken {
				c.cur.keys[j] = c.strAccs[kc].Intern(old[kc].Get(c.cur.keys[j]))
				c.curKeys[j] = c.cur.keys[j]
			}
		}
		for j, s := range c.specs {
			if s.Col < 0 {
				continue
			}
			ac := &c.cur.accs[j]
			str := old[s.Col] != nil
			if (s.Func == Min || s.Func == Max) && ac.seen && str {
				ac.minB = c.strAccs[s.Col].Intern(old[s.Col].Get(ac.minB))
				ac.maxB = c.strAccs[s.Col].Intern(old[s.Col].Get(ac.maxB))
			}
			if s.Func == CountD {
				if str {
					nd := make(map[uint64]struct{}, len(ac.distinct))
					for tok := range ac.distinct {
						nd[c.strAccs[s.Col].Intern(old[s.Col].Get(tok))] = struct{}{}
					}
					ac.distinct = nd
				}
				retained += len(ac.distinct)
			}
			if s.Func == Median {
				retained += len(ac.all)
			}
		}
	}
	c.heapBytes = c.strBytes()
	qc.Release(c.charged - c.memoCharge)
	c.charged = c.memoCharge
	cost := 0
	if c.curSet {
		cost = c.groupCost + c.heapBytes + retained*16
	}
	if err := qc.Charge(c.opName, cost); err != nil {
		return err
	}
	c.charged += cost
	return nil
}
