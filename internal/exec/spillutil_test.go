package exec

import (
	"errors"
	"strings"
	"testing"

	"tde/internal/heap"
	"tde/internal/spill"
	"tde/internal/types"
)

// TestMergeCursorReloadsDeniedChunk: a chunk whose charge is denied is
// kept, so once memory is freed the same chunk loads — the spill merge
// of aggregation retries this way after spilling its value spools.
func TestMergeCursorReloadsDeniedChunk(t *testing.T) {
	qc := NewQueryCtxSpill(nil, 0, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
	defer qc.CleanupSpill()
	m := qc.SpillManager()
	h := heap.New(types.CollateBinary)
	short, long := h.Append("a"), h.Append(strings.Repeat("z", 64))
	w, err := m.NewWriter([]spill.ColSpec{{Str: true, Sentinel: types.NullToken}}, &spill.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*spill.ChunkRows; i++ {
		tok := short
		if i >= spill.ChunkRows {
			tok = long
		}
		if err := w.Append([]uint64{tok}, []*heap.Heap{h}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := m.OpenReader(w.Path(), &spill.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for i := 0; i < 2; i++ {
		ch, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, ch.Bytes())
	}
	r.Close()
	if sizes[1] <= sizes[0] {
		t.Fatalf("chunk sizes %v: the second chunk must be the larger", sizes)
	}

	// Budget for both chunks; a hog the size of the second keeps it from
	// loading until the hog is released.
	bq := NewQueryCtxSpill(nil, int64(sizes[0]+sizes[1]), SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
	c, err := openMergeCursor(bq, "test", m, w.Path(), &spill.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close(false)
	if err := bq.Charge("hog", sizes[1]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < spill.ChunkRows; i++ {
		if err := c.advance(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.advance(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("loading the second chunk beside the hog: %v, want ErrBudgetExceeded", err)
	}
	bq.Release(sizes[1])
	if err := c.load(); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for ; !c.done; rows++ {
		if got := c.strHeap(0).Get(c.val(0)); got != strings.Repeat("z", 64) {
			t.Fatalf("row %d of the reloaded chunk is %q", rows, got)
		}
		if err := c.advance(); err != nil {
			t.Fatal(err)
		}
	}
	if rows != spill.ChunkRows {
		t.Fatalf("reloaded chunk gave %d rows, want %d", rows, spill.ChunkRows)
	}
}
