package exec

import (
	"fmt"
	"sort"
	"strings"

	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// AggFunc is an aggregation function. The set matches the Tableau
// aggregates the TDE exists to serve, including COUNTD and MEDIAN
// (Sect. 2.2: extracts supplement "databases that either perform poorly or
// lack useful functionality such as COUNTD or MEDIAN aggregation").
type AggFunc uint8

// Aggregation functions.
const (
	Sum AggFunc = iota
	Count
	CountD
	Min
	Max
	Avg
	Median
)

func (f AggFunc) String() string {
	return [...]string{"SUM", "COUNT", "COUNTD", "MIN", "MAX", "AVG", "MEDIAN"}[f]
}

// AggSpec pairs a function with an input column (-1 = COUNT(*)).
type AggSpec struct {
	Func AggFunc
	Col  int
	Name string
}

// AggMode selects the grouping algorithm; the tactical optimizer picks it
// from the key columns' runtime metadata (Sect. 2.3.1: "an aggregation
// operator can choose a hash algorithm based on the sizes and other
// attributes of the aggregation keys").
type AggMode uint8

// Aggregation modes.
const (
	// AggAuto defers the choice to Open.
	AggAuto AggMode = iota
	// AggHash uses a chained hash table keyed on the group tuple.
	AggHash
	// AggDirect indexes groups in a dense array over the keys' composite
	// domain — the perfect/direct hashing of Sect. 2.3.4, generalised to
	// any key tuple whose domains are small: a small-range integer by
	// v − min, a dictionary column by its token, a string column by the
	// dense id its interning memo assigns (keyDomains). It reports the
	// routine "token-direct" when any key is token-addressed — GROUP BY
	// the compressed code, no hashing and no value decode (compressed
	// execution, DESIGN.md §12) — and "direct" otherwise.
	AggDirect
	// AggOrdered exploits grouped (sorted) input: one running group at a
	// time, flushed on key change — the ordered ("sandwiched")
	// aggregation of Sect. 4.2.2.
	AggOrdered
)

func (m AggMode) String() string {
	return [...]string{"auto", "hash", "direct", "ordered"}[m]
}

// directLimit caps the direct table for integer keys: the 64K-element
// direct lookup table of Sect. 2.3.4.
const directLimit = 1 << 16

// tokenDirectLimit caps the direct table once any key is token-addressed,
// and the source heaps the interning memo covers.
const tokenDirectLimit = 1 << 15

// keyDomain maps one group-key column onto dense ids [0, span) for the
// direct mode, plus the NULL slot span when the column can hold NULL.
// Integers map by v − min, dictionary columns by their token, string
// columns by the id internStrings wrote into ids.
type keyDomain struct {
	col     int
	min     uint64
	span    uint64
	null    uint64 // the value that marks NULL in this key's data
	hasNull bool
	stride  uint64
	ids     []uint64 // string keys: the current block's dense ids
}

// id returns row i's dense id; false when the value lies outside the
// planned domain (stale metadata, or a foreign heap bringing more
// strings than the schema heap holds).
func (d *keyDomain) id(b *vec.Block, i int) (uint64, bool) {
	v := b.Vecs[d.col].Data[i]
	if d.ids != nil {
		v = d.ids[i]
	}
	if v == d.null {
		return d.span, d.hasNull
	}
	v -= d.min
	return v, v < d.span
}

// keyDomains plans the direct mode's composite slot Σ id·stride over
// keyCols. It returns the table size, or 0 when some key has no small
// domain or the product of the bounds passes the limit — directLimit
// for integer keys, tokenDirectLimit once any key is token-addressed
// (tokens). With encoded execution off, dictionary and string keys have
// no domain, so they stay on hash and the decoded oracle runs a
// different path.
func keyDomains(in []ColInfo, keyCols []int, encodedOff bool) (doms []keyDomain, size int, tokens bool) {
	if len(keyCols) == 0 {
		return nil, 0, false
	}
	n := uint64(1)
	for _, kc := range keyCols {
		ci := &in[kc]
		md := ci.Meta
		d := keyDomain{col: kc, null: types.NullToken, hasNull: true, stride: n}
		switch {
		case ci.Dict != nil && !encodedOff:
			d.span, tokens = uint64(len(ci.Dict)), true
		case ci.Type == types.String && ci.Heap != nil && !encodedOff:
			d.span, tokens = uint64(ci.Heap.Len()), true
		case ci.Dict == nil && ci.Type != types.String && ci.Type != types.Real && md.HasRange &&
			md.Max-md.Min >= 0 && md.Max-md.Min < directLimit:
			d.min, d.span = uint64(md.Min), uint64(md.Max-md.Min)+1
			d.null, d.hasNull = types.NullBits(ci.Type), md.HasNulls
		default:
			return nil, 0, false
		}
		bound := d.span
		if d.hasNull {
			bound++
		}
		if n *= bound; n > directLimit {
			return nil, 0, false
		}
		doms = append(doms, d)
	}
	if tokens && n > tokenDirectLimit {
		return nil, 0, false
	}
	return doms, int(n), tokens
}

// chooseAggMode is the tactical decision Aggregate and ParallelAggregate
// share: a forced mode wins, else ordered beats direct beats hash when
// applicable. Only a serial caller may pick ordered — a morsel split
// breaks sorted runs apart — while the key domains behind the direct
// mode are column-wide and survive the split.
func chooseAggMode(in []ColInfo, keyCols []int, forced AggMode, encodedOff, serial bool) AggMode {
	if forced != AggAuto {
		return forced
	}
	if serial && len(keyCols) == 1 {
		if md := in[keyCols[0]].Meta; md.SortedKnown && md.SortedAsc {
			return AggOrdered
		}
	}
	if _, size, _ := keyDomains(in, keyCols, encodedOff); size > 0 {
		return AggDirect
	}
	return AggHash
}

// colMemo is one string column's interning memo over its schema heap:
// each source token's aggregation-heap token and dense id, so the column
// is interned once per distinct token instead of once per row, with no
// string allocated per row. Entries sit in a dense slice indexed by
// token>>2 (a token is an element's byte offset, and elements lie at
// least 4 bytes apart). Blocks on any other heap (a DeltaScan's insert
// heap, a computed column's per-block heap) take the per-row path.
type colMemo struct {
	src  *heap.Heap
	toks []memoEntry       // allocated (and charged) on the first block over src
	ids  map[uint64]uint64 // aggregation token -> dense id, first seen first
}

// memoEntry is a source token's aggregation token and dense id; an
// unfilled entry holds the NULL token, which no string interns to.
type memoEntry struct{ tok, id uint64 }

// memoEntryBytes is a memoEntry's size; memoIDBytes charges one ids
// entry, as the cost model charges a COUNTD map entry.
const (
	memoEntryBytes = 16
	memoIDBytes    = 16
)

// memoFor returns col's memo entries when h is the column's schema heap,
// else nil. The slice is charged against the budget when first
// allocated; a denied charge, or a heap past tokenDirectLimit elements'
// worth of bytes (near-unique columns), keeps the per-row path.
func (c *aggCore) memoFor(col int, h *heap.Heap) []memoEntry {
	m := c.memos[col]
	if m == nil || h != m.src {
		return nil
	}
	if m.toks == nil {
		n := h.Size()>>2 + 1
		if n > tokenDirectLimit+1 || c.qc.Charge(c.opName, n*memoEntryBytes) != nil {
			return nil
		}
		m.toks = make([]memoEntry, n)
		for i := range m.toks {
			m.toks[i].tok = types.NullToken
		}
		c.charged += n * memoEntryBytes
		c.memoCharge += n * memoEntryBytes
	}
	return m.toks
}

// id returns aggregation token tok's dense id, assigning the next one on
// first sight; NULL keeps the NULL token.
func (m *colMemo) id(tok uint64) uint64 {
	if tok == types.NullToken {
		return tok
	}
	id, ok := m.ids[tok]
	if !ok {
		id = uint64(len(m.ids))
		m.ids[tok] = id
	}
	return id
}

type group struct {
	keys []uint64
	accs []acc
}

type acc struct {
	sumI     int64
	sumF     float64
	count    int64
	minB     uint64
	maxB     uint64
	seen     bool
	distinct map[uint64]struct{}
	all      []uint64
	// spooled marks a COUNTD/MEDIAN the spill merge fallback finished
	// outside the group (valueSpool); result is the final value.
	spooled bool
	result  uint64
}

// aggCore is the grouping machinery shared by the serial Aggregate and
// the per-worker partials of ParallelAggregate: it owns the group table,
// the per-column string heaps, and the budget cost model, but not the
// child iteration (its caller feeds it blocks).
type aggCore struct {
	in      []ColInfo
	keyCols []int
	specs   []AggSpec
	chosen  AggMode
	opName  string
	qc      *QueryCtx

	groups    []*group
	lookup    map[uint64][]int // hash -> candidate group indexes (AggHash)
	direct    []int            // composite slot -> group index +1 (AggDirect)
	doms      []keyDomain      // the direct mode's key domains
	tokenKeys bool             // some key is token-addressed ("token-direct")

	// runBlocks counts input blocks folded run-at-a-time instead of
	// row-at-a-time — the rle-sum/rle-count routines of compressed
	// execution. Reported through the operator's routine string.
	runBlocks int

	// ordered mode state
	cur     *group
	curSet  bool
	curKeys []uint64

	// String columns that participate in grouping or MIN/MAX/COUNTD are
	// re-interned into one heap per column so tokens stay comparable
	// across blocks (computed string columns carry per-block heaps).
	// memos (nil with encoded execution off, or without a schema heap)
	// make that once per distinct source token; keyIDs holds a
	// direct-mode string key's block ids.
	strHeaps []*heap.Heap
	strAccs  []*heap.Accelerator
	memos    []*colMemo
	keyIDs   [][]uint64

	// budget cost model
	groupCost    int
	perRow       int
	heapBytes    int
	charged      int
	directCharge int // the direct table's up-front charge, kept across evictions
	memoCharge   int // the memo slices' charge, also kept across evictions
}

// newAggCore sets up the grouping state for the chosen mode; the direct
// table (the one up-front allocation) is charged against qc. A direct
// choice whose keys have no domain (a forced mode) falls back to hash.
func newAggCore(in []ColInfo, keyCols []int, specs []AggSpec, chosen AggMode, encodedOff bool, opName string, qc *QueryCtx) (*aggCore, error) {
	c := &aggCore{in: in, keyCols: keyCols, specs: specs, chosen: chosen, opName: opName, qc: qc}
	c.strHeaps = make([]*heap.Heap, len(in))
	c.strAccs = make([]*heap.Accelerator, len(in))
	c.memos = make([]*colMemo, len(in))
	c.keyIDs = make([][]uint64, len(in))
	if chosen == AggDirect {
		doms, size, tokens := keyDomains(in, keyCols, encodedOff)
		if size == 0 {
			c.chosen = AggHash
		} else {
			if err := qc.Charge(opName, size*8); err != nil {
				return nil, err
			}
			c.charged += size * 8
			c.directCharge = c.charged
			c.direct = make([]int, size)
			c.doms, c.tokenKeys = doms, tokens
			for k := range c.doms {
				if col := c.doms[k].col; in[col].Type == types.String {
					if c.keyIDs[col] == nil {
						c.keyIDs[col] = make([]uint64, vec.BlockSize)
					}
					c.doms[k].ids = c.keyIDs[col]
				}
			}
		}
	}
	switch c.chosen {
	case AggHash:
		c.lookup = make(map[uint64][]int)
	case AggOrdered:
		c.curKeys = make([]uint64, len(keyCols))
	}
	needsHeap := map[int]bool{}
	for _, kc := range keyCols {
		if in[kc].Type == types.String {
			needsHeap[kc] = true
		}
	}
	for _, s := range specs {
		if s.Col >= 0 && in[s.Col].Type == types.String {
			needsHeap[s.Col] = true
		}
	}
	for col := range needsHeap {
		coll := in[col].Collation
		if in[col].Heap != nil {
			coll = in[col].Heap.Collation()
		}
		c.strHeaps[col] = heap.New(coll)
		c.strAccs[col] = heap.NewAccelerator(c.strHeaps[col], 0)
		if !encodedOff && in[col].Heap != nil {
			c.memos[col] = &colMemo{src: in[col].Heap, ids: make(map[uint64]uint64)}
		}
	}
	// Per-group hash-table footprint: keys, accumulators, bookkeeping.
	c.groupCost = 64 + 16*(len(keyCols)+len(specs))
	for _, s := range specs {
		if s.Func == CountD || s.Func == Median {
			c.perRow += 16 // per-input-row state retained by COUNTD / MEDIAN
		}
	}
	return c, nil
}

// internStrings rewrites string tokens in place (the block is owned by
// the caller's read loop) into the per-column aggregation heaps, making
// tokens comparable across blocks and collation-aware. A direct-mode
// string key also gets each row's dense id in keyIDs.
func (c *aggCore) internStrings(b *vec.Block) {
	for col, acc := range c.strAccs {
		if acc == nil {
			continue
		}
		v := &b.Vecs[col]
		m, ids := c.memos[col], c.keyIDs[col]
		memo := c.memoFor(col, v.Heap)
		for i, src := range v.Data[:b.N] {
			var e memoEntry
			if j := src >> 2; j < uint64(len(memo)) && memo[j].tok != types.NullToken {
				e = memo[j]
			} else if src != types.NullToken {
				e.tok = acc.Intern(v.Heap.Get(src))
				if ids != nil {
					e.id = m.id(e.tok)
				}
				if j < uint64(len(memo)) {
					memo[j] = e
				}
			} else {
				e = memoEntry{types.NullToken, types.NullToken}
			}
			v.Data[i] = e.tok
			if ids != nil {
				ids[i] = e.id
			}
		}
		v.Heap = c.strHeaps[col]
	}
}

// freshHeaps replaces the aggregation heaps once a spill has moved their
// groups out and empties the memos in place: tokens and ids minted
// against the old heaps must not survive the reset, while the memo
// slices (and their charge) stay for the next blocks.
func (c *aggCore) freshHeaps() {
	for col, h := range c.strHeaps {
		if h == nil {
			continue
		}
		c.strHeaps[col] = heap.New(h.Collation())
		c.strAccs[col] = heap.NewAccelerator(c.strHeaps[col], 0)
		if m := c.memos[col]; m != nil {
			for i := range m.toks {
				m.toks[i].tok = types.NullToken
			}
			clear(m.ids)
		}
	}
}

// strBytes is the string state the budget is charged for as it grows:
// the aggregation heaps and the memos' id entries.
func (c *aggCore) strBytes() int {
	n := heapSizes(c.strHeaps)
	for _, m := range c.memos {
		if m != nil {
			n += len(m.ids) * memoIDBytes
		}
	}
	return n
}

// toHash moves the direct mode to hash for the rest of the input,
// indexing the groups built so far. The direct table's charge is
// returned.
func (c *aggCore) toHash() {
	c.lookup = make(map[uint64][]int, len(c.groups))
	for gi, g := range c.groups {
		h := hashKeys(g.keys)
		c.lookup[h] = append(c.lookup[h], gi)
	}
	c.chosen = AggHash
	c.direct, c.doms = nil, nil
	for col := range c.keyIDs {
		c.keyIDs[col] = nil
	}
	c.qc.Release(c.directCharge)
	c.charged -= c.directCharge
	c.directCharge = 0
}

// modeName is the grouping routine as reported: "token-direct" for the
// direct mode over a token-addressed key.
func (c *aggCore) modeName() string {
	if c.chosen == AggDirect && c.tokenKeys {
		return "token-direct"
	}
	return c.chosen.String()
}

// consumeBlock interns b's strings, groups it and charges the growth
// against the budget.
func (c *aggCore) consumeBlock(qc *QueryCtx, b *vec.Block) error {
	c.internStrings(b)
	before := len(c.groups)
	if c.chosen == AggOrdered && c.curSet {
		before++ // the running group not yet flushed
	}
	if c.runCapable(b) {
		c.consumeRuns(b)
	} else {
		b.Materialize() // late-decode boundary for shapes the run path skips
		for i := 0; i < b.N; i++ {
			c.update(c.findGroup(b, i), b, i)
		}
	}
	after := len(c.groups)
	if c.chosen == AggOrdered && c.curSet {
		after++
	}
	grown := c.strBytes()
	cost := (after-before)*c.groupCost + b.N*c.perRow + (grown - c.heapBytes)
	c.heapBytes = grown
	if err := qc.Charge(c.opName, cost); err != nil {
		return err
	}
	c.charged += cost
	return nil
}

// runCapable reports whether b can be folded run-at-a-time: a
// single-column run-encoded block whose specs all read that column (or
// COUNT(*)) with no MEDIAN — MEDIAN retains one value per input row, so
// run weighting buys nothing.
func (c *aggCore) runCapable(b *vec.Block) bool {
	if len(b.Vecs) != 1 || b.Vecs[0].Runs == nil {
		return false
	}
	for _, kc := range c.keyCols {
		if kc != 0 {
			return false
		}
	}
	for _, s := range c.specs {
		if s.Func == Median || s.Col > 0 {
			return false
		}
	}
	return true
}

// consumeRuns folds a run-encoded block without expanding it: one group
// probe and one weighted accumulator update per run instead of per row.
func (c *aggCore) consumeRuns(b *vec.Block) {
	v := &b.Vecs[0]
	runs := v.Runs
	c.runBlocks++
	if len(c.keyCols) == 0 && v.Dict == nil && v.Heap == nil {
		// Global aggregate over plain scalar runs: the pure kernel folds
		// (SUM multiplies by run length, COUNT adds it).
		c.foldRuns(c.findGroup(b, 0), runs, v.Type, b.N) // no keys: the single global group
		return
	}
	// Keyed (or dictionary-valued): stage each run's value in row 0 and
	// reuse the row machinery with the run length as weight.
	for ri := range runs {
		v.Data[0] = runs[ri].Value
		c.updateW(c.findGroup(b, 0), b, 0, int64(runs[ri].Count))
	}
}

// foldRuns applies the enc run kernels to a plain scalar column's runs.
func (c *aggCore) foldRuns(g *group, runs []enc.Run, t types.Type, rows int) {
	null := types.NullBits(t)
	for j, s := range c.specs {
		ac := &g.accs[j]
		if s.Col < 0 { // COUNT(*) counts NULLs too
			ac.count += int64(rows)
			continue
		}
		switch s.Func {
		case Count:
			ac.count += enc.CountRuns(runs, null)
		case CountD:
			for _, r := range runs {
				if r.Value != null {
					ac.distinct[r.Value] = struct{}{}
				}
			}
		case Sum, Avg:
			if t == types.Real {
				sum, n := enc.SumRunsReal(runs, null)
				ac.sumF += sum
				ac.count += n
			} else {
				sum, n := enc.SumRunsInt(runs, null)
				ac.sumI += sum
				ac.count += n
			}
		case Min, Max:
			mn, mx, ok := enc.MinMaxRuns(runs, null, func(a, b uint64) int {
				return types.Compare(t, a, b)
			})
			if !ok {
				break
			}
			if !ac.seen {
				ac.minB, ac.maxB, ac.seen = mn, mx, true
				break
			}
			if types.Compare(t, mn, ac.minB) < 0 {
				ac.minB = mn
			}
			if types.Compare(t, mx, ac.maxB) > 0 {
				ac.maxB = mx
			}
		}
	}
}

// finish flushes the ordered mode's running group.
func (c *aggCore) finish() {
	if c.chosen == AggOrdered && c.curSet {
		c.groups = append(c.groups, c.cur)
		c.curSet = false
	}
}

func (c *aggCore) findGroup(b *vec.Block, i int) *group {
	switch c.chosen {
	case AggDirect:
		slot := uint64(0)
		for k := range c.doms {
			d := &c.doms[k]
			id, ok := d.id(b, i)
			if !ok {
				// The key left its planned domain: degrade to hash for
				// the rest of the input rather than give a wrong answer.
				c.toHash()
				return c.findGroup(b, i)
			}
			slot += id * d.stride
		}
		if c.direct[slot] == 0 {
			c.groups = append(c.groups, c.newGroup(b, i))
			c.direct[slot] = len(c.groups)
		}
		return c.groups[c.direct[slot]-1]
	case AggOrdered:
		same := c.curSet
		if same {
			for j, kc := range c.keyCols {
				if b.Vecs[kc].Data[i] != c.curKeys[j] {
					same = false
					break
				}
			}
		}
		if !same {
			if c.curSet {
				c.groups = append(c.groups, c.cur)
			}
			c.cur = c.newGroup(b, i)
			c.curSet = true
			for j, kc := range c.keyCols {
				c.curKeys[j] = b.Vecs[kc].Data[i]
			}
		}
		return c.cur
	default: // AggHash
		h := uint64(fnvOffset)
		for _, kc := range c.keyCols {
			h ^= b.Vecs[kc].Data[i]
			h *= fnvPrime
		}
		for _, gi := range c.lookup[h] {
			g := c.groups[gi]
			match := true
			for j, kc := range c.keyCols {
				if g.keys[j] != b.Vecs[kc].Data[i] {
					match = false
					break
				}
			}
			if match {
				return g
			}
		}
		g := c.newGroup(b, i)
		c.groups = append(c.groups, g)
		c.lookup[h] = append(c.lookup[h], len(c.groups)-1)
		return g
	}
}

// The hash mode's FNV-1a-style fold over a key tuple.
const (
	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

func hashKeys(keys []uint64) uint64 {
	h := uint64(fnvOffset)
	for _, k := range keys {
		h ^= k
		h *= fnvPrime
	}
	return h
}

func (c *aggCore) newGroup(b *vec.Block, i int) *group {
	g := &group{keys: make([]uint64, len(c.keyCols)), accs: make([]acc, len(c.specs))}
	for j, kc := range c.keyCols {
		g.keys[j] = b.Vecs[kc].Data[i]
	}
	for j, s := range c.specs {
		if s.Func == CountD {
			g.accs[j].distinct = make(map[uint64]struct{})
		}
	}
	return g
}

// findGroupKeys is findGroup's hash-mode twin for the merge stage, keyed
// on an explicit key tuple instead of a block row.
func (c *aggCore) findGroupKeys(keys []uint64) *group {
	h := hashKeys(keys)
	for _, gi := range c.lookup[h] {
		g := c.groups[gi]
		match := true
		for j := range keys {
			if g.keys[j] != keys[j] {
				match = false
				break
			}
		}
		if match {
			return g
		}
	}
	g := &group{keys: append([]uint64(nil), keys...), accs: make([]acc, len(c.specs))}
	for j, s := range c.specs {
		if s.Func == CountD {
			g.accs[j].distinct = make(map[uint64]struct{})
		}
	}
	c.groups = append(c.groups, g)
	c.lookup[h] = append(c.lookup[h], len(c.groups)-1)
	return g
}

func (c *aggCore) update(g *group, b *vec.Block, i int) { c.updateW(g, b, i, 1) }

// updateW folds row i into g's accumulators w times in O(1) — w is a run
// length when the caller is consumeRuns, 1 on the row path.
func (c *aggCore) updateW(g *group, b *vec.Block, i int, w int64) {
	for j, s := range c.specs {
		ac := &g.accs[j]
		if s.Col < 0 { // COUNT(*)
			ac.count += w
			continue
		}
		v := &b.Vecs[s.Col]
		bits := v.Value(i)
		t := c.in[s.Col].Type
		if v.IsNull(i) {
			continue // aggregates skip NULLs
		}
		switch s.Func {
		case Count:
			ac.count += w
		case CountD:
			ac.distinct[v.Data[i]] = struct{}{}
		case Sum, Avg:
			ac.count += w
			if t == types.Real {
				ac.sumF += types.ToReal(bits) * float64(w)
			} else {
				ac.sumI += int64(bits) * w
			}
		case Min, Max:
			if !ac.seen {
				ac.minB, ac.maxB, ac.seen = bits, bits, true
				break
			}
			if t == types.String {
				if v.Heap.Compare(v.Data[i], ac.minB) < 0 {
					ac.minB = v.Data[i]
				}
				if v.Heap.Compare(v.Data[i], ac.maxB) > 0 {
					ac.maxB = v.Data[i]
				}
			} else {
				if types.Compare(t, bits, ac.minB) < 0 {
					ac.minB = bits
				}
				if types.Compare(t, bits, ac.maxB) > 0 {
					ac.maxB = bits
				}
			}
		case Median:
			ac.count += w
			for k := int64(0); k < w; k++ {
				ac.all = append(ac.all, bits)
			}
		}
	}
}

// remapToken translates a string token minted in o's per-column heap into
// c's heap (identity for non-string columns and NULL).
func (c *aggCore) remapToken(o *aggCore, col int, tok uint64) uint64 {
	if col < 0 || c.strAccs[col] == nil || tok == types.NullToken {
		return tok
	}
	return c.strAccs[col].Intern(o.strHeaps[col].Get(tok))
}

// mergeFrom folds another core's partial groups into c — the merge stage
// of parallel aggregation. Both cores were fed disjoint morsels of the
// same input, so accumulators combine associatively; string tokens are
// re-interned from o's heaps into c's. The merge runs on hash: a direct
// core indexes its groups first.
func (c *aggCore) mergeFrom(o *aggCore, qc *QueryCtx) error {
	o.finish()
	if c.chosen == AggDirect {
		c.toHash()
	}
	before := len(c.groups)
	keys := make([]uint64, len(c.keyCols))
	for _, g := range o.groups {
		for j, kc := range c.keyCols {
			keys[j] = c.remapToken(o, kc, g.keys[j])
		}
		dst := c.findGroupKeys(keys)
		for j := range c.specs {
			c.mergeAcc(&dst.accs[j], &g.accs[j], o, c.specs[j])
		}
	}
	grown := c.strBytes()
	cost := (len(c.groups)-before)*c.groupCost + (grown - c.heapBytes)
	c.heapBytes = grown
	if err := qc.Charge(c.opName, cost); err != nil {
		return err
	}
	c.charged += cost
	return nil
}

func (c *aggCore) mergeAcc(dst, src *acc, o *aggCore, s AggSpec) {
	if s.Col < 0 { // COUNT(*)
		dst.count += src.count
		return
	}
	switch s.Func {
	case Count:
		dst.count += src.count
	case CountD:
		for tok := range src.distinct {
			dst.distinct[c.remapToken(o, s.Col, tok)] = struct{}{}
		}
	case Sum, Avg:
		dst.count += src.count
		dst.sumI += src.sumI
		dst.sumF += src.sumF
	case Median:
		dst.count += src.count
		dst.all = append(dst.all, src.all...)
	case Min, Max:
		if !src.seen {
			return
		}
		t := c.in[s.Col].Type
		if t == types.String {
			minTok := c.remapToken(o, s.Col, src.minB)
			maxTok := c.remapToken(o, s.Col, src.maxB)
			h := c.strHeaps[s.Col]
			if !dst.seen {
				dst.minB, dst.maxB, dst.seen = minTok, maxTok, true
				return
			}
			if h.Compare(minTok, dst.minB) < 0 {
				dst.minB = minTok
			}
			if h.Compare(maxTok, dst.maxB) > 0 {
				dst.maxB = maxTok
			}
		} else {
			if !dst.seen {
				dst.minB, dst.maxB, dst.seen = src.minB, src.maxB, true
				return
			}
			if types.Compare(t, src.minB, dst.minB) < 0 {
				dst.minB = src.minB
			}
			if types.Compare(t, src.maxB, dst.maxB) > 0 {
				dst.maxB = src.maxB
			}
		}
	}
}

// emit writes up to BlockSize groups starting at 'at' into b, returning
// how many it wrote. outSchema is the aggregate operator's output schema.
func (c *aggCore) emit(b *vec.Block, at int, outSchema []ColInfo) int {
	if at >= len(c.groups) {
		return 0
	}
	n := len(c.groups) - at
	if n > vec.BlockSize {
		n = vec.BlockSize
	}
	ensureVecs(b, len(outSchema))
	for j, kc := range c.keyCols {
		v := &b.Vecs[j]
		v.Type = c.in[kc].Type
		v.Heap = c.in[kc].Heap
		if c.strHeaps[kc] != nil {
			v.Heap = c.strHeaps[kc]
		}
		v.Dict = c.in[kc].Dict
		for r := 0; r < n; r++ {
			v.Data[r] = c.groups[at+r].keys[j]
		}
	}
	for j, s := range c.specs {
		v := &b.Vecs[len(c.keyCols)+j]
		v.Type = outSchema[len(c.keyCols)+j].Type
		v.Heap = nil
		v.Dict = nil
		if s.Func == Min || s.Func == Max {
			if s.Col >= 0 {
				v.Heap = c.in[s.Col].Heap
				if c.strHeaps[s.Col] != nil {
					v.Heap = c.strHeaps[s.Col]
				}
				v.Dict = c.in[s.Col].Dict
			}
		}
		srcType := types.Integer
		if s.Col >= 0 {
			srcType = c.in[s.Col].Type
		}
		for r := 0; r < n; r++ {
			v.Data[r] = finishAcc(&c.groups[at+r].accs[j], s, srcType)
		}
	}
	b.N = n
	return n
}

// release drops the group state and the memos and returns the charged
// bytes to the accountant.
func (c *aggCore) release(qc *QueryCtx) {
	c.groups = nil
	c.lookup = nil
	c.direct = nil
	clear(c.memos)
	qc.Release(c.charged)
	c.charged, c.directCharge, c.memoCharge = 0, 0, 0
}

// Aggregate is the stop-and-go grouping operator.
type Aggregate struct {
	OpInstr
	child   Operator
	keyCols []int
	specs   []AggSpec
	mode    AggMode
	chosen  AggMode
	schema  []ColInfo

	// EncodedOff, set by the planner when encoded execution is disabled,
	// keeps dictionary and string keys off the direct mode (token-direct)
	// and string interning on the per-row path.
	EncodedOff bool

	core      *aggCore
	emitAt    int
	modeName  string // the grouping routine, as the core reported it
	runBlocks int    // blocks folded run-at-a-time (for the routine string)

	// spill-to-disk degradation state
	qc    *QueryCtx
	sp    *aggSpill
	spool *orderedSpool
	em    *aggSpillEmitter
}

// NewAggregate groups child by keyCols computing specs. mode AggAuto lets
// the tactical optimizer decide from runtime metadata.
func NewAggregate(child Operator, keyCols []int, specs []AggSpec, mode AggMode) *Aggregate {
	a := &Aggregate{child: child, keyCols: keyCols, specs: specs, mode: mode}
	a.schema = aggSchema(child.Schema(), keyCols, specs)
	return a
}

// aggSchema derives the output schema: key columns then one column per
// aggregate.
func aggSchema(in []ColInfo, keyCols []int, specs []AggSpec) []ColInfo {
	var schema []ColInfo
	for _, k := range keyCols {
		schema = append(schema, in[k])
	}
	for _, s := range specs {
		name := s.Name
		if name == "" {
			if s.Col >= 0 {
				name = fmt.Sprintf("%s(%s)", s.Func, in[s.Col].Name)
			} else {
				name = "COUNT(*)"
			}
		}
		schema = append(schema, ColInfo{Name: name, Type: aggType(s, in)})
	}
	return schema
}

func aggType(s AggSpec, in []ColInfo) types.Type {
	switch s.Func {
	case Count, CountD:
		return types.Integer
	case Avg, Median:
		return types.Real
	case Sum:
		if s.Col >= 0 && in[s.Col].Type == types.Real {
			return types.Real
		}
		return types.Integer
	default: // Min, Max
		return in[s.Col].Type
	}
}

// Schema implements Operator.
func (a *Aggregate) Schema() []ColInfo { return a.schema }

// Mode returns the algorithm actually chosen (valid after Open).
func (a *Aggregate) Mode() AggMode { return a.chosen }

// routine renders the chosen algorithm for OpStats, upgraded to the
// rle-* encoded-routine names when any input block was folded
// run-at-a-time (e.g. "rle-sum", or "rle-agg+token-direct" when grouped).
func (a *Aggregate) routine() string {
	name := a.modeName
	if a.runBlocks == 0 {
		return name
	}
	r := "rle-agg"
	if len(a.specs) == 1 {
		r = "rle-" + strings.ToLower(a.specs[0].Func.String())
	}
	if len(a.keyCols) > 0 {
		r += "+" + name
	}
	return r
}

// OpKind implements Instrumented.
func (a *Aggregate) OpKind() string { return "Aggregate" }

// OpChildren implements Instrumented.
func (a *Aggregate) OpChildren() []Operator { return []Operator{a.child} }

// Open implements Operator: stop-and-go, so all grouping happens here.
// When a charge is denied and a spill budget is set, the operator
// degrades instead of failing: hash/direct mode evicts partitioned
// partial groups to disk, ordered mode spools finished output rows.
func (a *Aggregate) Open(qc *QueryCtx) (err error) {
	start := a.beginOpen(qc, "Aggregate")
	defer func() {
		a.st.SetRoutine(a.routine())
		a.endOpen(start)
	}()
	a.qc = qc
	a.emitAt = 0
	a.runBlocks = 0
	defer func() {
		if err != nil {
			a.cleanup()
		}
	}()
	if err := a.child.Open(qc); err != nil {
		return err
	}
	defer a.child.Close()
	in := a.child.Schema()
	a.chosen = chooseAggMode(in, a.keyCols, a.mode, a.EncodedOff, true)
	core, err := newAggCore(in, a.keyCols, a.specs, a.chosen, a.EncodedOff, "Aggregate", qc)
	if err != nil {
		if a.chosen != AggDirect || !spillableErr(qc, err) {
			return err
		}
		// The direct table alone blows the budget: fall back to hash
		// mode, which can evict.
		if core, err = newAggCore(in, a.keyCols, a.specs, AggHash, a.EncodedOff, "Aggregate", qc); err != nil {
			return err
		}
	}
	a.core = core
	a.chosen, a.modeName = core.chosen, core.modeName()
	b := vec.NewBlock(len(in))
	for {
		ok, err := a.child.Next(b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if cerr := core.consumeBlock(qc, b); cerr != nil {
			if !spillableErr(qc, cerr) {
				return cerr
			}
			if a.chosen == AggOrdered {
				if a.spool == nil {
					a.spool = newOrderedSpool(qc, "Aggregate", &a.st.Spill, in, a.keyCols, a.specs, a.schema)
				}
				if serr := a.spool.spool(core); serr != nil {
					return serr
				}
			} else {
				if a.sp == nil {
					a.sp = newAggSpill(qc, "Aggregate", &a.st.Spill, in, a.keyCols, a.specs)
				}
				if serr := a.sp.evict(core); serr != nil {
					return serr
				}
			}
		}
	}
	core.finish()
	a.runBlocks = core.runBlocks
	a.chosen, a.modeName = core.chosen, core.modeName() // hash if the direct mode degraded
	if a.sp != nil && a.sp.spilled {
		work, err := a.sp.finishConsume(core)
		if err != nil {
			return err
		}
		core.release(qc)
		a.core = nil
		a.em = &aggSpillEmitter{sp: a.sp, out: a.schema, work: work}
		return nil
	}
	if a.spool != nil {
		if err := a.spool.finish(); err != nil {
			return err
		}
	}
	return nil
}

// Next implements Operator: emits one block of groups.
func (a *Aggregate) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := a.next(b)
	a.endNext(start, b, ok && err == nil)
	return ok, err
}

func (a *Aggregate) next(b *vec.Block) (bool, error) {
	if a.em != nil {
		return a.em.next(b)
	}
	if a.spool != nil {
		ok, err := a.spool.next(b)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		// spool drained; fall through to the in-memory tail
	}
	n := a.core.emit(b, a.emitAt, a.schema)
	if n == 0 {
		return false, nil
	}
	a.emitAt += n
	return true, nil
}

func finishAcc(ac *acc, s AggSpec, t types.Type) uint64 {
	if ac.spooled {
		return ac.result
	}
	switch s.Func {
	case Count:
		return uint64(ac.count)
	case CountD:
		return uint64(int64(len(ac.distinct)))
	case Sum:
		if ac.count == 0 {
			if t == types.Real {
				return types.NullBits(types.Real)
			}
			return types.NullBits(types.Integer)
		}
		if t == types.Real {
			return types.FromReal(ac.sumF)
		}
		return uint64(ac.sumI)
	case Avg:
		if ac.count == 0 {
			return types.NullBits(types.Real)
		}
		if t == types.Real {
			return types.FromReal(ac.sumF / float64(ac.count))
		}
		return types.FromReal(float64(ac.sumI) / float64(ac.count))
	case Min:
		if !ac.seen {
			return types.NullBits(t)
		}
		return ac.minB
	case Max:
		if !ac.seen {
			return types.NullBits(t)
		}
		return ac.maxB
	case Median:
		if len(ac.all) == 0 {
			return types.NullBits(types.Real)
		}
		vals := make([]float64, len(ac.all))
		for i, bits := range ac.all {
			if t == types.Real {
				vals[i] = types.ToReal(bits)
			} else {
				vals[i] = float64(int64(bits))
			}
		}
		sort.Float64s(vals)
		mid := len(vals) / 2
		if len(vals)%2 == 1 {
			return types.FromReal(vals[mid])
		}
		return types.FromReal((vals[mid-1] + vals[mid]) / 2)
	}
	return 0
}

// Close implements Operator.
func (a *Aggregate) Close() error {
	a.cleanup()
	return nil
}

// cleanup releases the group state's charges and removes any spill
// files this operator still owns.
func (a *Aggregate) cleanup() {
	if a.core != nil {
		a.core.release(a.qc)
		a.core = nil
	}
	if a.em != nil {
		a.em.close()
		a.em = nil
	}
	if a.sp != nil {
		a.sp.cleanup()
		a.sp = nil
	}
	if a.spool != nil {
		a.spool.close()
		a.spool = nil
	}
}

// NumGroups returns the group count (valid after Open).
func (a *Aggregate) NumGroups() int {
	if a.core == nil {
		return 0
	}
	return len(a.core.groups)
}

// KeyMetadataFromBuilt recomputes ColInfo metadata for a built column so
// plans that aggregate over IndexedScan output can still make tactical
// choices.
func KeyMetadataFromBuilt(bc *BuiltColumn, signed bool) enc.Metadata {
	return enc.MetadataFromStream(bc.Data, signed, sentinelFor(bc.Info), true)
}
