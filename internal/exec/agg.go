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
	// AggDirect indexes groups directly in an array over the key's
	// [min,max] envelope — the perfect/direct hashing of Sect. 2.3.4,
	// available when the key is narrow or its range is known small.
	AggDirect
	// AggOrdered exploits grouped (sorted) input: one running group at a
	// time, flushed on key change — the ordered ("sandwiched")
	// aggregation of Sect. 4.2.2.
	AggOrdered
	// AggTokenDirect indexes groups by dictionary token in a dense array
	// sized to the dictionary plus one NULL slot — GROUP BY the compressed
	// code with no hashing and no token decode, available when the key is
	// dictionary-compressed with a domain ≤ tokenDirectLimit (compressed
	// execution, DESIGN.md §12).
	AggTokenDirect
)

func (m AggMode) String() string {
	return [...]string{"auto", "hash", "direct", "ordered", "token-direct"}[m]
}

// directLimit caps the envelope size for AggDirect: the 64K-element direct
// lookup table of Sect. 2.3.4.
const directLimit = 1 << 16

// tokenDirectLimit caps the dictionary size for AggTokenDirect.
const tokenDirectLimit = 1 << 15

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

	groups    []*group
	lookup    map[uint64][]int // hash -> candidate group indexes (AggHash)
	direct    []int            // envelope -> group index +1 (AggDirect / AggTokenDirect)
	dmin      int64
	tokenDict []uint64 // the key's dictionary (AggTokenDirect)

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
	strHeaps []*heap.Heap
	strAccs  []*heap.Accelerator

	// budget cost model
	groupCost    int
	perRow       int
	heapBytes    int
	charged      int
	directCharge int // the direct table's up-front charge, kept across evictions
}

// newAggCore sets up the grouping state for the chosen mode; the direct
// table (the one up-front allocation) is charged against qc.
func newAggCore(in []ColInfo, keyCols []int, specs []AggSpec, chosen AggMode, opName string, qc *QueryCtx) (*aggCore, error) {
	c := &aggCore{in: in, keyCols: keyCols, specs: specs, chosen: chosen, opName: opName}
	switch chosen {
	case AggHash:
		c.lookup = make(map[uint64][]int)
	case AggDirect:
		md := in[keyCols[0]].Meta
		c.dmin = md.Min
		if err := qc.Charge(opName, int(md.Max-md.Min+1)*8); err != nil {
			return nil, err
		}
		c.charged += int(md.Max-md.Min+1) * 8
		c.directCharge = c.charged
		c.direct = make([]int, md.Max-md.Min+1)
	case AggTokenDirect:
		c.tokenDict = in[keyCols[0]].Dict
		n := len(c.tokenDict) + 1 // the last slot is the NULL token's
		if err := qc.Charge(opName, n*8); err != nil {
			return nil, err
		}
		c.charged += n * 8
		c.directCharge = c.charged
		c.direct = make([]int, n)
	case AggOrdered:
		c.curKeys = make([]uint64, len(keyCols))
	}
	c.strHeaps = make([]*heap.Heap, len(in))
	c.strAccs = make([]*heap.Accelerator, len(in))
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
// tokens comparable across blocks and collation-aware.
func (c *aggCore) internStrings(b *vec.Block) {
	for col, acc := range c.strAccs {
		if acc == nil {
			continue
		}
		v := &b.Vecs[col]
		for i := 0; i < b.N; i++ {
			tok := v.Data[i]
			if tok == types.NullToken {
				continue
			}
			v.Data[i] = acc.Intern(v.Heap.Get(tok))
		}
		v.Heap = c.strHeaps[col]
	}
}

// consumeBlock groups one block (whose string columns internStrings has
// already rewritten) and charges the growth against the budget.
func (c *aggCore) consumeBlock(qc *QueryCtx, b *vec.Block) error {
	before := len(c.groups)
	if c.chosen == AggOrdered && c.curSet {
		before++ // the running group not yet flushed
	}
	if c.runCapable(b) {
		if err := c.consumeRuns(b); err != nil {
			return err
		}
	} else {
		b.Materialize() // late-decode boundary for shapes the run path skips
		for i := 0; i < b.N; i++ {
			g, err := c.findGroup(b, i)
			if err != nil {
				return err
			}
			c.update(g, b, i)
		}
	}
	after := len(c.groups)
	if c.chosen == AggOrdered && c.curSet {
		after++
	}
	grown := heapSizes(c.strHeaps)
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
func (c *aggCore) consumeRuns(b *vec.Block) error {
	v := &b.Vecs[0]
	runs := v.Runs
	c.runBlocks++
	if len(c.keyCols) == 0 && v.Dict == nil && v.Heap == nil {
		// Global aggregate over plain scalar runs: the pure kernel folds
		// (SUM multiplies by run length, COUNT adds it).
		g, err := c.findGroup(b, 0) // no keys: the single global group
		if err != nil {
			return err
		}
		c.foldRuns(g, runs, v.Type, b.N)
		return nil
	}
	// Keyed (or dictionary-valued): stage each run's value in row 0 and
	// reuse the row machinery with the run length as weight.
	for ri := range runs {
		v.Data[0] = runs[ri].Value
		g, err := c.findGroup(b, 0)
		if err != nil {
			return err
		}
		c.updateW(g, b, 0, int64(runs[ri].Count))
	}
	return nil
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

func (c *aggCore) findGroup(b *vec.Block, i int) (*group, error) {
	switch c.chosen {
	case AggDirect:
		k := int64(b.Vecs[c.keyCols[0]].Data[i]) - c.dmin
		if k < 0 || k >= int64(len(c.direct)) {
			// Metadata promised this cannot happen; stored metadata can be
			// stale or corrupt, so fail the query rather than the process.
			return nil, fmt.Errorf("exec: direct aggregation key outside [min,max] envelope (corrupt column metadata?)")
		}
		if c.direct[k] == 0 {
			g := c.newGroup(b, i)
			c.groups = append(c.groups, g)
			c.direct[k] = len(c.groups)
		}
		return c.groups[c.direct[k]-1], nil
	case AggTokenDirect:
		tok := b.Vecs[c.keyCols[0]].Data[i]
		k := len(c.direct) - 1 // the NULL token's slot
		if tok != types.NullToken {
			if tok >= uint64(len(c.tokenDict)) {
				return nil, fmt.Errorf("exec: dictionary token outside the dictionary (corrupt column metadata?)")
			}
			k = int(tok)
		}
		if c.direct[k] == 0 {
			g := c.newGroup(b, i)
			c.groups = append(c.groups, g)
			c.direct[k] = len(c.groups)
		}
		return c.groups[c.direct[k]-1], nil
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
		return c.cur, nil
	default: // AggHash
		h := uint64(1469598103934665603)
		for _, kc := range c.keyCols {
			h ^= b.Vecs[kc].Data[i]
			h *= 1099511628211
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
				return g, nil
			}
		}
		g := c.newGroup(b, i)
		c.groups = append(c.groups, g)
		c.lookup[h] = append(c.lookup[h], len(c.groups)-1)
		return g, nil
	}
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
	h := uint64(1469598103934665603)
	for _, k := range keys {
		h ^= k
		h *= 1099511628211
	}
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
// re-interned from o's heaps into c's.
func (c *aggCore) mergeFrom(o *aggCore, qc *QueryCtx) error {
	o.finish()
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
	grown := heapSizes(c.strHeaps)
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

// release drops the group state and returns the charged bytes to the
// accountant.
func (c *aggCore) release(qc *QueryCtx) {
	c.groups = nil
	c.lookup = nil
	c.direct = nil
	qc.Release(c.charged)
	c.charged = 0
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
	// keeps the mode choice off the token-direct routine.
	EncodedOff bool

	core      *aggCore
	emitAt    int
	runBlocks int // blocks folded run-at-a-time (for the routine string)

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
	name := a.chosen.String()
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

// chooseMode is the tactical decision: ordered beats direct beats hash
// when applicable.
func (a *Aggregate) chooseMode() AggMode {
	if a.mode != AggAuto {
		return a.mode
	}
	in := a.child.Schema()
	if len(a.keyCols) == 1 {
		md := in[a.keyCols[0]].Meta
		if md.SortedKnown && md.SortedAsc {
			return AggOrdered
		}
		if d := in[a.keyCols[0]].Dict; !a.EncodedOff && d != nil && len(d) <= tokenDirectLimit {
			return AggTokenDirect
		}
		if md.HasRange && !md.HasNulls {
			if span := md.Max - md.Min; span >= 0 && span < directLimit {
				return AggDirect
			}
		}
	}
	return AggHash
}

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
	a.chosen = a.chooseMode()
	core, err := newAggCore(a.child.Schema(), a.keyCols, a.specs, a.chosen, "Aggregate", qc)
	if err != nil {
		if (a.chosen != AggDirect && a.chosen != AggTokenDirect) || !spillableErr(qc, err) {
			return err
		}
		// The direct table alone blows the budget: fall back to hash
		// mode, which can evict.
		a.chosen = AggHash
		if core, err = newAggCore(a.child.Schema(), a.keyCols, a.specs, AggHash, "Aggregate", qc); err != nil {
			return err
		}
	}
	a.core = core
	b := vec.NewBlock(len(a.child.Schema()))
	for {
		ok, err := a.child.Next(b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		core.internStrings(b)
		if cerr := core.consumeBlock(qc, b); cerr != nil {
			if !spillableErr(qc, cerr) {
				return cerr
			}
			if a.chosen == AggOrdered {
				if a.spool == nil {
					a.spool = newOrderedSpool(qc, "Aggregate", &a.st.Spill, a.child.Schema(), a.keyCols, a.specs, a.schema)
				}
				if serr := a.spool.spool(core); serr != nil {
					return serr
				}
			} else {
				if a.sp == nil {
					a.sp = newAggSpill(qc, "Aggregate", &a.st.Spill, a.child.Schema(), a.keyCols, a.specs)
				}
				if serr := a.sp.evict(core); serr != nil {
					return serr
				}
			}
		}
	}
	core.finish()
	a.runBlocks = core.runBlocks
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
