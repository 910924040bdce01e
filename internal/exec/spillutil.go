package exec

import (
	"errors"
	"io"

	"tde/internal/heap"
	"tde/internal/spill"
	"tde/internal/types"
)

// spillFanout is the number of partitions one eviction or split fans out
// to; with spillMaxDepth levels of recursive re-partitioning a skewed
// partition is cut by up to fanout^depth before the merge fallback.
const spillFanout = 8

// spillMaxDepth bounds recursive re-partitioning: same-key rows can never
// be separated by re-hashing, so unbounded recursion on a dominant key
// would loop forever.
const spillMaxDepth = 2

// spillMergeFanIn caps how many runs a merge reads at once; more runs are
// first pre-merged in passes of this width.
const spillMergeFanIn = 8

// spillableErr reports whether err is a memory-budget denial the operator
// may degrade from by spilling: disk-budget denials and I/O failures must
// surface, not recurse into more spilling.
func spillableErr(qc *QueryCtx, err error) bool {
	if !qc.SpillEnabled() {
		return false
	}
	var be *BudgetError
	return errors.As(err, &be) && !be.Disk
}

// diskErr reports whether err means "the disk side gave out": an ENOSPC /
// write failure or a spill-budget denial. The aggregation ladder reacts
// to these by degrading to a serial single-spool pass.
func diskErr(err error) bool {
	if errors.Is(err, spill.ErrSpill) {
		return true
	}
	var be *BudgetError
	return errors.As(err, &be) && be.Disk
}

// collationOf returns the collation governing a column's strings.
func collationOf(info ColInfo) types.Collation {
	if info.Heap != nil {
		return info.Heap.Collation()
	}
	return info.Collation
}

// spillSpecFor maps one operator column to its spill representation:
// strings re-intern into chunk heaps, dictionary columns spill their
// indexes (the dict array stays in the schema), scalars spill raw bits.
func spillSpecFor(info ColInfo) spill.ColSpec {
	if info.Type == types.String {
		return spill.ColSpec{Str: true, Sentinel: types.NullToken, Collation: collationOf(info)}
	}
	if info.Dict != nil {
		return spill.ColSpec{Sentinel: types.NullToken}
	}
	return spill.ColSpec{Signed: signedType(info.Type), Sentinel: types.NullBits(info.Type)}
}

func spillSpecs(schema []ColInfo) []spill.ColSpec {
	specs := make([]spill.ColSpec, len(schema))
	for c, info := range schema {
		specs[c] = spillSpecFor(info)
	}
	return specs
}

// spillNullHash stands in for NULL in content hashing, so NULL keys land
// in one partition on both sides of a join.
const spillNullHash = 0x9ae16a3b2f90404f

// spillValHash hashes one key value by content: strings hash their
// collated content (tokens from different heaps are not comparable),
// scalars and dictionary indexes hash their raw bits — exactly the
// equality domain the in-memory operators group and join on.
func spillValHash(v uint64, str bool, coll types.Collation, h *heap.Heap) uint64 {
	if str {
		if v == types.NullToken {
			return spillNullHash
		}
		return coll.Hash(h.Get(v))
	}
	return v
}

// spillHasher folds per-column value hashes into a depth-salted partition
// hash. The salt makes each recursion level shuffle keys into different
// buckets, so a partition that collides at depth d spreads at d+1.
type spillHasher struct{ h uint64 }

func newSpillHasher(depth int) spillHasher {
	return spillHasher{h: 1469598103934665603 ^ uint64(depth+1)*0x9E3779B97F4A7C15}
}

func (s *spillHasher) fold(v uint64) {
	s.h ^= v
	s.h *= 1099511628211
}

// part finishes the hash and returns the partition in [0, spillFanout).
func (s *spillHasher) part() int {
	h := s.h
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h >> 61)
}

// mergeCursor walks the rows of one spill run during a merge, holding one
// decoded chunk at a time and charging its footprint against the memory
// budget (released when the next chunk replaces it).
type mergeCursor struct {
	qc      *QueryCtx
	op      string
	m       *spill.Manager
	r       *spill.Reader
	path    string
	ch      *spill.Chunk
	at      int
	charged int
	done    bool
	// pending is a chunk read whose charge was denied; the next load
	// charges it again instead of reading past it.
	pending *spill.Chunk
}

// openMergeCursor opens path and positions on the first row.
func openMergeCursor(qc *QueryCtx, op string, m *spill.Manager, path string, stats *spill.Stats) (*mergeCursor, error) {
	r, err := m.OpenReader(path, stats)
	if err != nil {
		return nil, err
	}
	c := &mergeCursor{qc: qc, op: op, m: m, r: r, path: path}
	if err := c.load(); err != nil {
		c.close(false)
		return nil, err
	}
	return c, nil
}

func (c *mergeCursor) unload() {
	c.qc.Release(c.charged)
	c.charged = 0
	c.ch = nil
}

func (c *mergeCursor) load() error {
	ch := c.pending
	if ch == nil {
		var err error
		ch, err = c.r.Next()
		if err == io.EOF {
			c.unload()
			c.done = true
			return nil
		}
		if err != nil {
			return err
		}
	}
	c.unload()
	n := ch.Bytes()
	if err := c.qc.Charge(c.op, n); err != nil {
		c.pending = ch
		return err
	}
	c.pending = nil
	c.charged = n
	c.ch = ch
	c.at = 0
	return nil
}

// advance moves to the next row, loading the next chunk at a boundary.
func (c *mergeCursor) advance() error {
	c.at++
	if c.ch != nil && c.at < c.ch.Rows {
		return nil
	}
	return c.load()
}

func (c *mergeCursor) val(col int) uint64         { return c.ch.Cols[col].Values[c.at] }
func (c *mergeCursor) strHeap(col int) *heap.Heap { return c.ch.Cols[col].Heap }

// close releases the chunk charge and the file handle; remove also
// deletes the run file, returning its disk budget.
func (c *mergeCursor) close(remove bool) {
	c.unload()
	if c.r != nil {
		c.r.Close()
		c.r = nil
	}
	if remove && c.m != nil {
		_ = c.m.Remove(c.path)
	}
}

// pickMin returns the index of the smallest live cursor under less, ties
// to the lowest index — runs are opened in input order, which is what
// keeps the external sort stable.
func pickMin(cs []*mergeCursor, less func(a, b *mergeCursor) bool) int {
	best := -1
	for i, c := range cs {
		if c == nil || c.done {
			continue
		}
		if best < 0 || less(c, cs[best]) {
			best = i
		}
	}
	return best
}

// mergeRuns merges the given runs into one new run under less, removing
// the inputs. Used by the external sort's pre-merge passes when more runs
// exist than a single merge should fan in.
func mergeRuns(qc *QueryCtx, op string, m *spill.Manager, specs []spill.ColSpec, paths []string, stats *spill.Stats, less func(a, b *mergeCursor) bool) (out string, err error) {
	cursors := make([]*mergeCursor, 0, len(paths))
	defer func() {
		for _, c := range cursors {
			c.close(err == nil) // inputs are consumed on success, kept for cleanup on failure
		}
	}()
	for _, p := range paths {
		c, cerr := openMergeCursor(qc, op, m, p, stats)
		if cerr != nil {
			return "", cerr
		}
		cursors = append(cursors, c)
	}
	w, err := m.NewWriter(specs, stats)
	if err != nil {
		return "", err
	}
	row := make([]uint64, len(specs))
	heaps := make([]*heap.Heap, len(specs))
	for {
		i := pickMin(cursors, less)
		if i < 0 {
			break
		}
		cur := cursors[i]
		for c := range specs {
			row[c] = cur.val(c)
			if specs[c].Str {
				heaps[c] = cur.strHeap(c)
			}
		}
		if err := w.Append(row, heaps); err != nil {
			w.Close()
			return "", err
		}
		if err := cur.advance(); err != nil {
			w.Close()
			return "", err
		}
	}
	if err := w.Close(); err != nil {
		return "", err
	}
	return w.Path(), nil
}
