package exec

import (
	"container/heap"
	"strconv"

	strheap "tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// Limit passes through at most N rows. A flow operator; combined with the
// TopN sort below it gives Tableau's "top N" views without materializing
// the full sort.
type Limit struct {
	OpInstr
	child Operator
	n     int
	seen  int
	buf   *vec.Block
}

// NewLimit caps child at n rows.
func NewLimit(child Operator, n int) *Limit {
	return &Limit{child: child, n: n}
}

// Schema implements Operator.
func (l *Limit) Schema() []ColInfo { return l.child.Schema() }

// OpKind implements Instrumented.
func (l *Limit) OpKind() string { return "Limit" }

// OpLabel implements Instrumented.
func (l *Limit) OpLabel() string { return strconv.Itoa(l.n) }

// OpChildren implements Instrumented.
func (l *Limit) OpChildren() []Operator { return []Operator{l.child} }

// Open implements Operator.
func (l *Limit) Open(qc *QueryCtx) error {
	start := l.beginOpen(qc, "Limit")
	defer l.endOpen(start)
	l.seen = 0
	l.buf = vec.NewBlock(len(l.child.Schema()))
	return l.child.Open(qc)
}

// Next implements Operator.
func (l *Limit) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := l.next(b)
	l.endNext(start, b, ok && err == nil)
	return ok, err
}

func (l *Limit) next(b *vec.Block) (bool, error) {
	if l.seen >= l.n {
		return false, nil
	}
	ok, err := l.child.Next(l.buf)
	if err != nil || !ok {
		return false, err
	}
	l.buf.Materialize() // late-decode boundary
	take := l.buf.N
	if l.seen+take > l.n {
		take = l.n - l.seen
	}
	ensureVecs(b, len(l.buf.Vecs))
	for c := range l.buf.Vecs {
		src := &l.buf.Vecs[c]
		dst := &b.Vecs[c]
		dst.Type, dst.Heap, dst.Dict = src.Type, src.Heap, src.Dict
		copy(dst.Data, src.Data[:take])
	}
	b.N = take
	l.seen += take
	return true, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.child.Close() }

// TopN is a bounded sort: it keeps only the n smallest rows under the
// sort keys (a max-heap of size n), so ORDER BY ... LIMIT n costs
// O(rows·log n) memory-light work instead of a full materialized sort.
type TopN struct {
	OpInstr
	child  Operator
	keys   []SortKey
	n      int
	schema []ColInfo

	rows   *rowHeap
	sorted [][]uint64
	at     int

	qc      *QueryCtx
	charged int
}

// NewTopN keeps the n first rows of child under keys.
func NewTopN(child Operator, n int, keys ...SortKey) *TopN {
	return &TopN{child: child, keys: keys, n: n, schema: child.Schema()}
}

// Schema implements Operator.
func (t *TopN) Schema() []ColInfo { return t.schema }

// OpKind implements Instrumented.
func (t *TopN) OpKind() string { return "TopN" }

// OpLabel implements Instrumented.
func (t *TopN) OpLabel() string { return strconv.Itoa(t.n) }

// OpChildren implements Instrumented.
func (t *TopN) OpChildren() []Operator { return []Operator{t.child} }

// topRow is one retained row: its values, and the strings of its string
// columns resolved from their heaps.
type topRow struct {
	vals []uint64
	strs []string
}

// rowHeap is a max-heap of retained rows ordered by the sort keys, so the
// root is the worst retained row, evicted when something better arrives.
type rowHeap struct {
	rows []topRow
	less func(a, b *topRow) bool
}

func (h *rowHeap) Len() int { return len(h.rows) }
func (h *rowHeap) Less(a, b int) bool {
	return h.less(&h.rows[b], &h.rows[a]) // inverted: max-heap
}
func (h *rowHeap) Swap(a, b int) { h.rows[a], h.rows[b] = h.rows[b], h.rows[a] }
func (h *rowHeap) Push(x any)    { h.rows = append(h.rows, x.(topRow)) }
func (h *rowHeap) Pop() any {
	n := len(h.rows) - 1
	r := h.rows[n]
	h.rows = h.rows[:n]
	return r
}

// Open implements Operator: consume everything, retaining n rows. Once n
// rows are held, each input row is first compared with the root through
// a reused scratch row, and copied only when it enters.
func (t *TopN) Open(qc *QueryCtx) (err error) {
	start := t.beginOpen(qc, "TopN")
	defer t.endOpen(start)
	t.qc = qc
	defer func() {
		if err != nil && t.charged > 0 {
			qc.Release(t.charged)
			t.charged = 0
		}
	}()
	if err := t.child.Open(qc); err != nil {
		return err
	}
	defer t.child.Close()
	nc := len(t.schema)
	strCols := make([]bool, nc)
	for c, info := range t.schema {
		strCols[c] = info.Type == types.String
	}
	h := &rowHeap{less: t.rowLess}
	t.rows = h

	retained := 0
	scratch := topRow{vals: make([]uint64, nc), strs: make([]string, nc)}
	b := vec.NewBlock(nc)
	// resolve fills r.strs[c] from row i of b (string columns only).
	resolve := func(r *topRow, c, i int) {
		if strCols[c] && r.vals[c] != types.NullToken {
			r.strs[c] = b.Vecs[c].Heap.Get(r.vals[c])
		}
	}
	for {
		ok, err := t.child.Next(b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		b.Materialize() // late-decode boundary: the heap keeps plain rows
		for i := 0; i < b.N && t.n > 0; i++ {
			for c := 0; c < nc; c++ {
				scratch.vals[c] = b.Vecs[c].Data[i]
			}
			if h.Len() < t.n {
				r := topRow{vals: append([]uint64(nil), scratch.vals...), strs: make([]string, nc)}
				for c := 0; c < nc; c++ {
					resolve(&r, c, i)
				}
				heap.Push(h, r)
				continue
			}
			for _, k := range t.keys {
				resolve(&scratch, k.Col, i)
			}
			if !t.rowLess(&scratch, &h.rows[0]) {
				continue // no better than the worst retained row
			}
			root := &h.rows[0]
			copy(root.vals, scratch.vals)
			for c := 0; c < nc; c++ {
				root.strs[c] = ""
				resolve(root, c, i)
			}
			heap.Fix(h, 0)
		}
		// The retained set is bounded by n rows; charge only its growth.
		if h.Len() > retained {
			n := rowFootprint(h.Len()-retained, nc)
			if err := qc.Charge("TopN", n); err != nil {
				return err
			}
			t.charged += n
			retained = h.Len()
		}
	}
	// Extract in reverse (max-heap pops worst first).
	out := make([][]uint64, h.Len())
	strs := make([][]string, h.Len())
	for i := h.Len() - 1; i >= 0; i-- {
		r := heap.Pop(h).(topRow)
		out[i], strs[i] = r.vals, r.strs
	}
	t.sorted = out
	// Rebuild per-column heaps for the retained strings.
	t.outHeaps(strs, strCols)
	t.at = 0
	return nil
}

// outHeaps interns retained strings into fresh heaps and rewrites tokens.
func (t *TopN) outHeaps(strs [][]string, strCols []bool) {
	for c := range t.schema {
		if !strCols[c] {
			continue
		}
		coll := t.schema[c].Collation
		if t.schema[c].Heap != nil {
			coll = t.schema[c].Heap.Collation()
		}
		hp := strheap.New(coll)
		for r := range t.sorted {
			if t.sorted[r][c] == types.NullToken {
				continue
			}
			t.sorted[r][c] = hp.Append(strs[r][c])
		}
		t.schema[c].Heap = hp
	}
}

// rowLess orders two rows by the sort keys (NULL first).
func (t *TopN) rowLess(a, b *topRow) bool {
	for _, k := range t.keys {
		c := t.compareRows(k.Col, a, b)
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

func (t *TopN) compareRows(col int, a, b *topRow) int {
	info := &t.schema[col]
	va, vb := a.vals[col], b.vals[col]
	if info.Type == types.String {
		an, bn := va == types.NullToken, vb == types.NullToken
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		case bn:
			return 1
		}
		coll := info.Collation
		if info.Heap != nil {
			coll = info.Heap.Collation()
		}
		return coll.Compare(a.strs[col], b.strs[col])
	}
	resolve := func(v uint64) uint64 {
		if info.Dict != nil && v != types.NullToken {
			return info.Dict[v]
		}
		return v
	}
	xa, xb := resolve(va), resolve(vb)
	an, bn := types.IsNull(info.Type, xa), types.IsNull(info.Type, xb)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	return types.Compare(info.Type, xa, xb)
}

// Next implements Operator.
func (t *TopN) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := t.next(b)
	t.endNext(start, b, ok && err == nil)
	return ok, err
}

func (t *TopN) next(b *vec.Block) (bool, error) {
	n := len(t.sorted) - t.at
	if n <= 0 {
		return false, nil
	}
	if n > vec.BlockSize {
		n = vec.BlockSize
	}
	ensureVecs(b, len(t.schema))
	for c := range t.schema {
		v := &b.Vecs[c]
		v.Type = t.schema[c].Type
		v.Heap = t.schema[c].Heap
		v.Dict = t.schema[c].Dict
		for i := 0; i < n; i++ {
			v.Data[i] = t.sorted[t.at+i][c]
		}
	}
	b.N = n
	t.at += n
	return true, nil
}

// Close implements Operator.
func (t *TopN) Close() error {
	if t.charged > 0 {
		t.qc.Release(t.charged)
		t.charged = 0
	}
	t.sorted = nil
	t.rows = nil
	return nil
}
