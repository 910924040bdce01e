package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"tde"
)

// The traced run records spans in this package only, around the calls
// it makes into each layer's public functions, plus one child span per
// operator taken from Result.Stats(). Nothing inside the engine is
// instrumented for the benchmark.

// clockEpoch anchors the benchmark's span clock (ns since this instant).
var clockEpoch = time.Now()

func nowNs() int64 { return int64(time.Since(clockEpoch)) }

func sinceNs(t time.Time) int64 { return int64(t.Sub(clockEpoch)) }

// span is one recorded interval. Operator spans also carry their busy
// time (Open+Next, inclusive of children), which is less than the
// interval for an operator that waits on its consumer and more than it
// for one whose work is summed over parallel workers.
type span struct {
	name       string
	cat        string
	start, end int64
	id, parent int
	req        int64
	busy       int64
	self       int64
	args       map[string]any
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs share the traced code path.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// engineOffset converts the engine's operator clock to ours:
	// benchmark ns = engine ns - engineOffset.
	engineOffset int64
	nextReq      int64
}

// add records s and returns its span ID (0 on a nil tracer).
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.id
}

// begin opens a span that starts now; end closes it. Spans recorded
// while it is open can name it as their parent.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	return t.add(span{name: name, cat: "bench", start: nowNs(), parent: parent, req: req})
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := nowNs()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// request allocates a request ID shared by one operation's spans.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextReq++
	return t.nextReq
}

// timed runs fn inside a span named name and returns how long it took
// and fn's error.
func (t *tracer) timed(name string, parent int, req int64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.add(span{name: name, cat: "bench", start: sinceNs(start), end: sinceNs(end), parent: parent, req: req})
	return end.Sub(start), err
}

// opNode is one executed operator with its plan children.
type opNode struct {
	st       tde.OperatorStats
	children []*opNode
}

// parsePlanTree recovers the plan tree's parent links from the rendered
// EXPLAIN ANALYZE text: each operator line starts with a box-drawing
// prefix three runes per level deep, then "#<id>". It returns the
// parent ID of every operator (0 for the root).
func parsePlanTree(analyze string) (map[int]int, error) {
	parents := map[int]int{}
	var stack []int // stack[d] = ID of the latest operator at depth d
	for _, line := range strings.Split(analyze, "\n") {
		hash := strings.IndexByte(line, '#')
		if hash < 0 || strings.HasPrefix(line, "memory_peak=") {
			continue
		}
		prefix := line[:hash]
		if strings.TrimLeft(prefix, "├└─│ ") != "" {
			continue
		}
		end := hash + 1
		for end < len(line) && line[end] >= '0' && line[end] <= '9' {
			end++
		}
		id, err := strconv.Atoi(line[hash+1 : end])
		if err != nil {
			return nil, fmt.Errorf("plan line %q: %v", line, err)
		}
		depth := utf8.RuneCountInString(prefix) / 3
		if depth > len(stack) {
			return nil, fmt.Errorf("plan line %q: depth %d without a parent", line, depth)
		}
		stack = append(stack[:depth], id)
		if depth > 0 {
			parents[id] = stack[depth-1]
		} else {
			parents[id] = 0
		}
	}
	if len(parents) == 0 {
		return nil, fmt.Errorf("no operators in plan text")
	}
	return parents, nil
}

// buildOpTree links the operator snapshots (plan pre-order) into a tree.
func buildOpTree(ops []tde.OperatorStats, parents map[int]int) (*opNode, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("no operator stats")
	}
	nodes := make(map[int]*opNode, len(ops))
	for _, s := range ops {
		nodes[s.ID] = &opNode{st: s}
	}
	var root *opNode
	for _, s := range ops {
		p, ok := parents[s.ID]
		if !ok {
			return nil, fmt.Errorf("operator #%d missing from plan tree", s.ID)
		}
		if p == 0 {
			root = nodes[s.ID]
			continue
		}
		pn := nodes[p]
		if pn == nil {
			return nil, fmt.Errorf("operator #%d has unknown parent #%d", s.ID, p)
		}
		pn.children = append(pn.children, nodes[s.ID])
	}
	if root == nil {
		return nil, fmt.Errorf("plan tree has no root")
	}
	return root, nil
}

func busyNs(s tde.OperatorStats) int64 { return s.OpenNanos + s.NextNanos }

// selfTimes returns each operator's self time: its busy time minus the
// part of it its children cover. A child covers at most its own busy
// time, and at most the interval it shares with the parent scaled by the
// parent's parallel width (busy time over interval, at least 1). So a
// pipelined child is subtracted in full; the workers under an Exchange
// cover only the interval they overlap the Exchange's wait, leaving it
// the start-up and drain; and operators that all run inside the same
// parallel workers subtract each other's summed busy time.
func selfTimes(root *opNode) map[int]int64 {
	out := map[int]int64{}
	var walk func(n *opNode)
	walk = func(n *opNode) {
		busy := busyNs(n.st)
		width := 1.0
		if d := n.st.EndNanos - n.st.StartNanos; d > 0 && busy > d {
			width = float64(busy) / float64(d)
		}
		covered := int64(0)
		for _, c := range n.children {
			overlap := min(c.st.EndNanos, n.st.EndNanos) - max(c.st.StartNanos, n.st.StartNanos)
			capped := int64(float64(max(overlap, 0)) * width)
			covered += min(busyNs(c.st), capped)
			walk(c)
		}
		out[n.st.ID] = max(busy-covered, 0)
	}
	walk(root)
	return out
}

// addOps records one span per operator under parent, on the benchmark
// clock, with busy and self time attached.
func (t *tracer) addOps(parent int, req int64, root *opNode, self map[int]int64) {
	if t == nil {
		return
	}
	var walk func(n *opNode, parent int)
	walk = func(n *opNode, parent int) {
		s := n.st
		name := s.Kind
		if s.Label != "" {
			name += "(" + s.Label + ")"
		}
		args := map[string]any{"op_id": s.ID, "rows_out": s.RowsOut}
		if s.Routine != "" {
			args["routine"] = s.Routine
		}
		id := t.add(span{name: name, cat: "op", start: s.StartNanos - t.engineOffset,
			end: max(s.EndNanos, s.StartNanos) - t.engineOffset, parent: parent, req: req,
			busy: busyNs(s), self: self[s.ID], args: args})
		for _, c := range n.children {
			walk(c, id)
		}
	}
	walk(root, parent)
}

// calibrate estimates the offset between the engine's operator clock and
// ours by bracketing tiny queries: an operator starts after our "before"
// reading and ends before our "after" reading, which bounds the offset
// from both sides.
func (t *tracer) calibrate(ctx context.Context, db *tde.Database, sql string) error {
	if t == nil {
		return nil
	}
	lo, hi := int64(-1<<62), int64(1<<62)
	for i := 0; i < 16; i++ {
		before := nowNs()
		res, err := db.QueryContext(ctx, sql, tde.QueryOptions{})
		after := nowNs()
		if err != nil {
			return fmt.Errorf("clock calibration: %w", err)
		}
		for _, s := range res.Stats().Operators {
			if s.StartNanos == 0 {
				continue
			}
			hi = min(hi, s.StartNanos-before)
			lo = max(lo, s.EndNanos-after)
		}
	}
	if lo > hi {
		t.engineOffset = hi
	} else {
		t.engineOffset = lo + (hi-lo)/2
	}
	return nil
}

// setIntervalSelf fills in the self time of every benchmark span (not
// operator spans, which carry their own): its duration minus the part of
// its interval that its children's intervals cover. spans[i] has ID i+1.
func setIntervalSelf(spans []span) {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.parent > 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	for i := range spans {
		if spans[i].cat != "op" {
			spans[i].self = intervalSelf(spans[i], kids[spans[i].id])
		}
	}
}

// intervalSelf is s's duration minus the union of its children's
// intervals clipped to s.
func intervalSelf(s span, children []span) int64 {
	var iv [][2]int64
	for _, c := range children {
		if a, b := max(c.start, s.start), min(c.end, s.end); b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, reach := int64(0), s.start
	for _, v := range iv {
		a := max(v[0], reach)
		if v[1] > a {
			covered += v[1] - a
			reach = v[1]
		}
	}
	return s.end - s.start - covered
}

type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as a Chrome trace: one complete event
// per span on its own thread row (tid = span ID), named by a
// thread_name record, with parent, request ID, busy and self time as
// args.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"traceEvents":[`)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	setIntervalSelf(spans)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		start := max(s.start, 0)
		args := map[string]any{"parent": s.parent, "req": s.req,
			"self_ms": float64(s.self) / 1e6}
		if s.busy > 0 {
			args["busy_ms"] = float64(s.busy) / 1e6
		}
		for k, v := range s.args {
			args[k] = v
		}
		// Encoder.Encode appends a newline, which is valid JSON whitespace.
		if err := enc.Encode(traceEvent{Name: "thread_name", Phase: "M", PID: 1, TID: s.id,
			Args: map[string]any{"name": fmt.Sprintf("%s #%d", s.name, s.id)}}); err != nil {
			f.Close()
			return err
		}
		fmt.Fprint(w, ",")
		if err := enc.Encode(traceEvent{Name: s.name, Cat: s.cat, Phase: "X",
			TS: float64(start) / 1e3, Dur: float64(max(s.end-start, 0)) / 1e3,
			PID: 1, TID: s.id, Args: args}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
