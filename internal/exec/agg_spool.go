package exec

import (
	"sort"

	"tde/internal/heap"
	"tde/internal/spill"
	"tde/internal/types"
)

// valueSpool carries one group's COUNTD or MEDIAN input through the
// aggregation spill's merge fallback. The merge folds one group at a
// time, but a single group's distinct set or value list can itself
// outgrow the budget — an ungrouped COUNTD over a near-unique column is
// the common case — so the values are buffered while the budget allows,
// sorted into spill runs when it does not, and streamed back in value
// order: COUNTD counts the values that differ from their predecessor,
// MEDIAN stops at the middle. Both match finishAcc exactly: COUNTD uses
// the same equality as the in-memory distinct set (raw bits, collation
// equality for strings), MEDIAN the same float order and midpoint.
type valueSpool struct {
	sp    *aggSpill
	fn    AggFunc
	t     types.Type      // the aggregated column's type
	specs []spill.ColSpec // the single value column of a run
	vals  []uint64
	h     *heap.Heap // string values' heap (nil for scalars)
	runs  []string
	n     int // values added for the current group
	// limit caps the bytes buffered before a flush (0 = until a charge is
	// denied), so the spool never starves the merge's cursors.
	limit int

	charged, heapBytes int
	err                error // first failure, reported by result
}

// newValueSpool builds the spool of spec j, one of n spools that share a
// quarter of the query's memory budget.
func newValueSpool(sp *aggSpill, j, n int) *valueSpool {
	s := sp.aspecs[j]
	v := &valueSpool{sp: sp, fn: s.Func, t: sp.in[s.Col].Type,
		specs: []spill.ColSpec{sp.rowSpecs[sp.fieldAt[j]+1]},
		limit: int(sp.qc.Budget() / int64(4*n))}
	if v.specs[0].Str {
		v.h = heap.New(v.specs[0].Collation)
	}
	return v
}

// add appends one value; h resolves string tokens.
func (v *valueSpool) add(val uint64, h *heap.Heap) {
	if v.err != nil {
		return
	}
	if v.h != nil {
		val = v.h.Append(h.Get(val))
	}
	v.vals = append(v.vals, val)
	v.n++
	grown := 0
	if v.h != nil {
		grown = v.h.Size()
	}
	cost := 8 + grown - v.heapBytes
	v.heapBytes = grown
	if err := v.sp.qc.Charge(v.sp.op, cost); err != nil {
		if !spillableErr(v.sp.qc, err) {
			v.err = err
			return
		}
		v.err = v.flush()
		return
	}
	v.charged += cost
	if v.limit > 0 && v.charged >= v.limit {
		v.err = v.flush()
	}
}

// less orders two values; s carries the string of a string value.
func (v *valueSpool) less(a, b uint64, as, bs string) bool {
	switch {
	case v.h != nil:
		return v.specs[0].Collation.Compare(as, bs) < 0
	case v.fn == Median:
		x, y := medianValue(v.t, a), medianValue(v.t, b)
		return x < y || x != x && y == y // sort.Float64s order: NaN first
	}
	return a < b
}

func (v *valueSpool) str(val uint64, h *heap.Heap) string {
	if v.h == nil {
		return ""
	}
	return h.Get(val)
}

// flush sorts the buffered values into a new run.
func (v *valueSpool) flush() error {
	if len(v.vals) == 0 {
		return nil
	}
	sort.Slice(v.vals, func(a, b int) bool {
		return v.less(v.vals[a], v.vals[b], v.str(v.vals[a], v.h), v.str(v.vals[b], v.h))
	})
	w, err := v.sp.mgr.NewWriter(v.specs, &v.sp.stats.IO)
	if err != nil {
		return err
	}
	row, heaps := make([]uint64, 1), []*heap.Heap{v.h}
	for _, x := range v.vals {
		row[0] = x
		if err := w.Append(row, heaps); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	v.runs = append(v.runs, w.Path())
	v.sp.stats.AddSpill()
	v.clearBuffer()
	return nil
}

func (v *valueSpool) clearBuffer() {
	v.sp.qc.Release(v.charged)
	v.charged, v.heapBytes = 0, 0
	v.vals = v.vals[:0]
	if v.h != nil {
		v.h = heap.New(v.specs[0].Collation)
	}
}

// reset drops the current group's values and runs.
func (v *valueSpool) reset() {
	v.clearBuffer()
	for _, p := range v.runs {
		_ = v.sp.mgr.Remove(p)
	}
	v.runs, v.n, v.err = nil, 0, nil
}

// result finishes the current group's aggregate and resets the spool.
func (v *valueSpool) result() (res uint64, err error) {
	var cursors []*mergeCursor
	defer func() {
		for _, c := range cursors {
			c.close(true)
		}
		v.reset()
	}()
	if v.err != nil {
		return 0, v.err
	}
	// next yields the values in order (n of them in total).
	var next func() (uint64, string, error)
	if len(v.runs) == 0 {
		sort.Slice(v.vals, func(a, b int) bool {
			return v.less(v.vals[a], v.vals[b], v.str(v.vals[a], v.h), v.str(v.vals[b], v.h))
		})
		i := 0
		next = func() (uint64, string, error) {
			i++
			return v.vals[i-1], v.str(v.vals[i-1], v.h), nil
		}
	} else {
		if err := v.flush(); err != nil {
			return 0, err
		}
		less := func(a, b *mergeCursor) bool {
			return v.less(a.val(0), b.val(0), v.str(a.val(0), a.strHeap(0)), v.str(b.val(0), b.strHeap(0)))
		}
		sp := v.sp
		for len(v.runs) > spillMergeFanIn {
			merged, err := mergeRuns(sp.qc, sp.op, sp.mgr, v.specs, v.runs[:spillMergeFanIn], &sp.stats.IO, less)
			if err != nil {
				return 0, err
			}
			v.runs = append([]string{merged}, v.runs[spillMergeFanIn:]...)
		}
		for len(v.runs) > 0 {
			c, err := openMergeCursor(sp.qc, sp.op, sp.mgr, v.runs[0], &sp.stats.IO)
			if err != nil {
				return 0, err
			}
			cursors = append(cursors, c)
			v.runs = v.runs[1:]
		}
		next = func() (uint64, string, error) {
			c := cursors[pickMin(cursors, less)]
			val := c.val(0)
			s := v.str(val, c.strHeap(0))
			return val, s, c.advance()
		}
	}

	if v.fn == CountD {
		distinct := 0
		var prev uint64
		var prevS string
		for k := 0; k < v.n; k++ {
			val, s, err := next()
			if err != nil {
				return 0, err
			}
			same := val == prev
			if v.h != nil {
				same = v.specs[0].Collation.Equal(s, prevS)
			}
			if k == 0 || !same {
				distinct++
			}
			prev, prevS = val, s
		}
		return uint64(int64(distinct)), nil
	}
	if v.n == 0 {
		return types.NullBits(types.Real), nil
	}
	mid := v.n / 2
	lo := 0.0
	for k := 0; ; k++ {
		val, _, err := next()
		if err != nil {
			return 0, err
		}
		f := medianValue(v.t, val)
		switch {
		case k == mid-1:
			lo = f
		case k == mid && v.n%2 == 1:
			return types.FromReal(f), nil
		case k == mid:
			return types.FromReal((lo + f) / 2), nil
		}
	}
}

// medianValue is the float a MEDIAN input value sorts and averages as.
func medianValue(t types.Type, bits uint64) float64 {
	if t == types.Real {
		return types.ToReal(bits)
	}
	return float64(int64(bits))
}
