package exec

import (
	"fmt"

	"tde/internal/enc"
	"tde/internal/storage"
	"tde/internal/types"
	"tde/internal/vec"
)

// Scan is the table scan flow operator: it reads stored columns one
// decompression block at a time (one decode call per iteration block,
// Sect. 3.1). Dictionary-compressed columns and string columns emit
// tokens, preserving the invisible-join opportunity; plain scalars emit
// resolved full-width values.
type Scan struct {
	OpInstr
	table   *storage.Table
	colIdxs []int
	schema  []ColInfo
	readers []*enc.Reader
	at      int
	rows    int
	qc      *QueryCtx
	// EmitRuns, set by the planner when encoded execution is on, lets the
	// scan emit run-length columns as run-encoded blocks (vec.Vector.Runs)
	// instead of expanding them row-by-row. Only single-column scans of a
	// scalar RLE column qualify: multi-column blocks would need run
	// alignment across columns, and string columns resolve through heaps.
	EmitRuns bool
	runCol   int
	// cache is the shared decode cache (nil outside a serving process);
	// cacheCols marks which columns it can serve (everything but
	// run-length streams, which have no block structure).
	cache     *DecodeCache
	cacheCols []bool
	// Prune holds the planner's sargable zone filters (DESIGN.md §15);
	// blocks they prove empty are skipped without decoding.
	Prune  []ZoneFilter
	pruner zonePruner
}

// NewScan scans the named columns of t (all columns when names is nil).
func NewScan(t *storage.Table, names ...string) (*Scan, error) {
	s := &Scan{table: t, rows: t.Rows()}
	if len(names) == 0 {
		for i := range t.Columns {
			s.colIdxs = append(s.colIdxs, i)
		}
	} else {
		for _, n := range names {
			idx := t.ColumnIndex(n)
			if idx < 0 {
				return nil, fmt.Errorf("exec: table %q has no column %q", t.Name, n)
			}
			s.colIdxs = append(s.colIdxs, idx)
		}
	}
	for _, idx := range s.colIdxs {
		c := t.Columns[idx]
		s.schema = append(s.schema, ColInfo{
			Name: c.Name, Type: c.Type, Collation: c.Collation,
			Heap: c.Heap, Dict: c.Dict, Meta: c.Meta,
		})
	}
	return s, nil
}

// Schema implements Operator.
func (s *Scan) Schema() []ColInfo { return s.schema }

// OpKind implements Instrumented.
func (s *Scan) OpKind() string { return "Scan" }

// OpLabel implements Instrumented.
func (s *Scan) OpLabel() string { return s.table.Name }

// Open implements Operator.
func (s *Scan) Open(qc *QueryCtx) error {
	start := s.beginOpen(qc, "Scan")
	defer s.endOpen(start)
	s.qc = qc
	s.at = 0
	s.readers = make([]*enc.Reader, len(s.colIdxs))
	kinds := make([]enc.Kind, 0, len(s.colIdxs))
	for i, idx := range s.colIdxs {
		s.readers[i] = enc.NewReader(s.table.Columns[idx].Data)
		kinds = append(kinds, s.table.Columns[idx].Data.Kind())
	}
	s.cache = qc.Cache()
	s.cacheCols = s.cacheCols[:0]
	for _, idx := range s.colIdxs {
		s.cacheCols = append(s.cacheCols,
			s.cache != nil && s.table.Columns[idx].Data.Kind() != enc.RunLength)
	}
	s.runCol = -1
	s.pruner = newZonePruner(s.table, s.Prune)
	routine := encRoutine(kinds)
	if s.pruner.active() {
		routine += "+zoneskip"
	}
	if s.EmitRuns && len(s.colIdxs) == 1 {
		c := s.table.Columns[s.colIdxs[0]]
		if c.Data.Kind() == enc.RunLength && c.Heap == nil && c.Type != types.String {
			s.runCol = 0
			routine += "(runs)"
		}
	}
	s.st.SetRoutine(routine)
	return nil
}

// Next implements Operator.
func (s *Scan) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := s.next(b)
	s.endNext(start, b, ok && err == nil)
	return ok, err
}

func (s *Scan) next(b *vec.Block) (bool, error) {
	if err := s.qc.Err(); err != nil {
		return false, err
	}
	// Zone pruning: the cursor is always vec.BlockSize-aligned, so blocks
	// a filter proves empty advance it without decoding anything — no
	// reader call, no decode-cache charge.
	for s.at < s.rows && s.pruner.active() && s.pruner.skip(s.at/vec.BlockSize) {
		step := s.rows - s.at
		if step > vec.BlockSize {
			step = vec.BlockSize
		}
		s.at += step
		s.st.AddBlocksSkipped(1)
	}
	if s.at >= s.rows {
		return false, nil
	}
	n := s.rows - s.at
	if n > vec.BlockSize {
		n = vec.BlockSize
	}
	ensureVecs(b, len(s.schema))
	for i, r := range s.readers {
		v := &b.Vecs[i]
		info := s.schema[i]
		v.Type = info.Type
		v.Heap = info.Heap
		v.Dict = info.Dict
		w := s.table.Columns[s.colIdxs[i]].Data.Width()
		if i == s.runCol {
			// Compressed execution: hand the runs downstream instead of
			// expanding them. Bytes scanned counts one value per run — the
			// decode work actually done.
			// The runs get a fresh slice per block: a parallel consumer
			// still folds this block while the next Next call fills its
			// own, so a scan-owned buffer would be overwritten under it.
			runs, covered := r.ReadRuns(s.at, n, nil)
			if covered != n {
				return false, fmt.Errorf("exec: short run read: %d of %d", covered, n)
			}
			for j := range runs {
				runs[j].Value = resolveRaw(runs[j].Value, w, info)
			}
			v.Runs = runs
			s.st.AddBytesScanned(int64(len(runs) * w))
			continue
		}
		var got int
		if s.cacheCols[i] {
			var hits, misses int64
			got, hits, misses = cacheRead(s.cache, s.table.Columns[s.colIdxs[i]].Data, s.at, n, v.Data)
			s.st.AddCacheHits(hits)
			s.st.AddCacheMisses(misses)
		} else {
			got = r.Read(s.at, n, v.Data)
		}
		if got != n {
			return false, fmt.Errorf("exec: short column read: %d of %d", got, n)
		}
		widenInPlace(v.Data[:n], w, info)
		s.st.AddBytesScanned(int64(n * w))
	}
	b.N = n
	s.at += n
	return true, nil
}

// Close implements Operator.
func (s *Scan) Close() error {
	s.readers = nil
	return nil
}

// cacheRead copies n values starting at logical index start of stream st
// into out through the shared decode cache, one block lookup at a time,
// returning values copied and blocks hit/missed.
func cacheRead(c *DecodeCache, st *enc.Stream, start, n int, out []uint64) (copied int, hits, misses int64) {
	total := st.Len()
	if start >= total {
		return 0, 0, 0
	}
	if start+n > total {
		n = total - start
	}
	bs := st.BlockSize()
	for copied < n {
		idx := start + copied
		data, hit := c.ReadBlock(st, idx/bs)
		if hit {
			hits++
		} else {
			misses++
		}
		k := copy(out[copied:n], data[idx%bs:])
		if k == 0 {
			break
		}
		copied += k
	}
	return copied, hits, misses
}

// encRoutine renders the deduplicated encoding kinds of a scan's columns
// in first-seen order, e.g. "dict+rle+raw".
func encRoutine(kinds []enc.Kind) string {
	var out string
	seen := map[enc.Kind]bool{}
	for _, k := range kinds {
		if seen[k] {
			continue
		}
		seen[k] = true
		if out != "" {
			out += "+"
		}
		out += k.String()
	}
	return out
}

// widenInPlace converts raw width-sized stream values to full-width bits.
func widenInPlace(data []uint64, width int, info ColInfo) {
	if width == 8 {
		return
	}
	for i, v := range data {
		data[i] = resolveRaw(v, width, info)
	}
}

// ensureVecs sizes a block for n columns. Vectors come back plain (Runs
// cleared): producers that emit encoded blocks set Runs afterwards, so a
// reused output block never leaks a previous block's encoding.
func ensureVecs(b *vec.Block, n int) {
	for len(b.Vecs) < n {
		b.Vecs = append(b.Vecs, vec.Vector{Data: make([]uint64, vec.BlockSize)})
	}
	b.Vecs = b.Vecs[:n]
	for i := range b.Vecs {
		if cap(b.Vecs[i].Data) < vec.BlockSize {
			b.Vecs[i].Data = make([]uint64, vec.BlockSize)
		}
		b.Vecs[i].Data = b.Vecs[i].Data[:vec.BlockSize]
		b.Vecs[i].Runs = nil
	}
}

// BuiltScan iterates a Built table (the output of FlowTable and the
// pseudo-table operators).
type BuiltScan struct {
	OpInstr
	built   *Built
	readers []*enc.Reader
	at      int
	qc      *QueryCtx
}

// NewBuiltScan scans bt.
func NewBuiltScan(bt *Built) *BuiltScan { return &BuiltScan{built: bt} }

// Schema implements Operator.
func (s *BuiltScan) Schema() []ColInfo { return s.built.Schema() }

// OpKind implements Instrumented.
func (s *BuiltScan) OpKind() string { return "BuiltScan" }

// Open implements Operator.
func (s *BuiltScan) Open(qc *QueryCtx) error {
	start := s.beginOpen(qc, "BuiltScan")
	defer s.endOpen(start)
	s.qc = qc
	s.at = 0
	s.readers = make([]*enc.Reader, len(s.built.Cols))
	kinds := make([]enc.Kind, 0, len(s.built.Cols))
	for i := range s.built.Cols {
		s.readers[i] = enc.NewReader(s.built.Cols[i].Data)
		kinds = append(kinds, s.built.Cols[i].Data.Kind())
	}
	s.st.SetRoutine(encRoutine(kinds))
	return nil
}

// Next implements Operator.
func (s *BuiltScan) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := s.next(b)
	s.endNext(start, b, ok && err == nil)
	return ok, err
}

func (s *BuiltScan) next(b *vec.Block) (bool, error) {
	if err := s.qc.Err(); err != nil {
		return false, err
	}
	rows := s.built.Rows
	if s.at >= rows {
		return false, nil
	}
	n := rows - s.at
	if n > vec.BlockSize {
		n = vec.BlockSize
	}
	ensureVecs(b, len(s.built.Cols))
	for i, r := range s.readers {
		col := &s.built.Cols[i]
		v := &b.Vecs[i]
		v.Type = col.Info.Type
		v.Heap = col.Info.Heap
		v.Dict = col.Info.Dict
		r.Read(s.at, n, v.Data)
		widenInPlace(v.Data[:n], col.Data.Width(), col.Info)
		s.st.AddBytesScanned(int64(n * col.Data.Width()))
	}
	b.N = n
	s.at += n
	return true, nil
}

// Close implements Operator.
func (s *BuiltScan) Close() error {
	s.readers = nil
	return nil
}

// BuildTable lets a BuiltScan act as a TableSource trivially.
func (s *BuiltScan) BuildTable(qc *QueryCtx) (*Built, error) { return s.built, nil }
