package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tde"
)

const analyzeText = `#1 Sort [memory]  rows=6 blocks=1 time=78.4ms
└─ #2 ParallelAggregate [hash(workers=2)]  rows=6 blocks=1 time=78.3ms
   └─ #3 HashJoin [direct]  rows=598826 blocks=585 time=525.0ms
      ├─ #4 Exchange(workers=2 completion-order)  rows=570665 blocks=585 time=10.8ms
      │  └─ #5 Scan(lineitem) [for+dict+zoneskip]  rows=598826 blocks=585 time=44.5ms bytes=12.0MB
      └─ #6 FlowTable [delta+for+dict]  rows=150000 blocks=0 time=267.5ms
         └─ #7 Scan(orders) [delta+for+dict]  rows=150000 blocks=147 time=18.3ms bytes=4.1MB
memory_peak=1.9KB spill_peak=0B
`

func TestParsePlanTree(t *testing.T) {
	got, err := parsePlanTree(analyzeText)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 3, 7: 6}
	if len(got) != len(want) {
		t.Fatalf("parents = %v, want %v", got, want)
	}
	for id, p := range want {
		if got[id] != p {
			t.Errorf("parent of #%d = %d, want %d", id, got[id], p)
		}
	}
	if _, err := parsePlanTree("memory_peak=0B spill_peak=0B\n"); err == nil {
		t.Error("a plan without operators must be refused")
	}
}

// op builds an operator snapshot whose activity spans [start, end] with
// busy ns of Open+Next time.
func op(id int, kind string, start, end, busy int64) tde.OperatorStats {
	return tde.OperatorStats{ID: id, Kind: kind, StartNanos: start, EndNanos: end, NextNanos: busy}
}

func TestSelfTimesWithExchangeWorkers(t *testing.T) {
	// Aggregate pulls from an Exchange whose two workers each run
	// Select over Scan: the workers' busy times are summed, so Select
	// and Scan report more busy time than their wall-clock interval.
	ops := []tde.OperatorStats{
		op(1, "Aggregate", 0, 110, 110),
		op(2, "Exchange", 0, 100, 100),
		op(3, "Select", 5, 98, 180),
		op(4, "Scan", 6, 97, 120),
	}
	root, err := buildOpTree(ops, map[int]int{1: 0, 2: 1, 3: 2, 4: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := selfTimes(root)
	want := map[int]int64{
		1: 10,  // pipelined: the Exchange's wait is subtracted in full
		2: 7,   // the workers cover only the 93ns they overlap it
		3: 60,  // same workers as Scan: summed busy minus summed busy
		4: 120, // leaf
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(#%d %s) = %d, want %d", id, ops[id-1].Kind, got[id], w)
		}
	}
}

func TestSelfTimesPipelineAndJoin(t *testing.T) {
	ops := []tde.OperatorStats{
		op(1, "Sort", 0, 100, 100),
		op(2, "HashJoin", 1, 99, 90),
		op(3, "Scan", 40, 99, 30),     // probe side
		op(4, "FlowTable", 1, 40, 35), // build side
		op(5, "Scan", 2, 39, 20),
		op(6, "Select", 0, 0, 0), // never opened
	}
	root, err := buildOpTree(ops, map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := selfTimes(root)
	want := map[int]int64{1: 10, 2: 25, 3: 30, 4: 15, 5: 20, 6: 0}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(#%d) = %d, want %d", id, got[id], w)
		}
	}
}

func TestBuildOpTreeRejectsBrokenLinks(t *testing.T) {
	ops := []tde.OperatorStats{op(1, "Sort", 0, 1, 1), op(2, "Scan", 0, 1, 1)}
	if _, err := buildOpTree(ops, map[int]int{1: 0}); err == nil {
		t.Error("an operator missing from the plan tree must be refused")
	}
	if _, err := buildOpTree(ops, map[int]int{1: 0, 2: 9}); err == nil {
		t.Error("an unknown parent must be refused")
	}
}

func TestIntervalSelf(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{{start: 10, end: 30}, {start: 20, end: 50}, {start: 90, end: 120}}
	if got := intervalSelf(parent, children); got != 50 {
		t.Errorf("self = %d, want 100 - (40 + 10)", got)
	}
	if got := intervalSelf(parent, nil); got != 100 {
		t.Errorf("leaf self = %d, want 100", got)
	}
}

// TestWriteChrome checks the trace layout the repository's trace checker
// requires: one complete event per span on a tid of its own, and a
// thread_name record for every tid.
func TestWriteChrome(t *testing.T) {
	tr := &tracer{}
	req := tr.request()
	root := tr.begin("setup", 0, req)
	tr.timed("storage.Save", root, req, func() error { return nil })
	tr.end(root)
	q := tr.add(span{name: "tde.QueryContext(q)", cat: "bench", start: 10, end: 500, req: req})
	tree, err := buildOpTree([]tde.OperatorStats{op(1, "Sort", 20, 400, 300), op(2, "Scan", 30, 390, 200)},
		map[int]int{1: 0, 2: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr.addOps(q, req, tree, selfTimes(tree))

	path := filepath.Join(t.TempDir(), "t.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	named, spans := map[int]bool{}, map[int]traceEvent{}
	for _, ev := range tf.TraceEvents {
		switch ev.Phase {
		case "M":
			if _, ok := ev.Args["name"].(string); ev.Name != "thread_name" || !ok {
				t.Errorf("bad metadata event %+v", ev)
			}
			named[ev.TID] = true
		case "X":
			if _, dup := spans[ev.TID]; dup {
				t.Errorf("two spans on tid %d", ev.TID)
			}
			if ev.TS < 0 || ev.Dur < 0 {
				t.Errorf("negative ts/dur in %+v", ev)
			}
			spans[ev.TID] = ev
		default:
			t.Errorf("unexpected phase %q", ev.Phase)
		}
	}
	if len(spans) != 5 {
		t.Fatalf("%d spans, want 5", len(spans))
	}
	for tid := range spans {
		if !named[tid] {
			t.Errorf("span on tid %d has no thread_name", tid)
		}
	}
	if p := spans[5].Args["parent"].(float64); p != 4 {
		t.Errorf("Scan's parent = %v, want the Sort span 4", p)
	}
	if s := spans[4].Args["self_ms"].(float64); s != 100e-6 {
		t.Errorf("Sort self = %vms, want 300ns - 200ns", s)
	}
	if s := spans[3].Args["self_ms"].(float64); s != 110e-6 {
		t.Errorf("QueryContext self = %vms, want its interval minus the Sort interval", s)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", 0, tr.request()); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	tr.end(0)
	if _, err := tr.timed("x", 0, 0, func() error { return nil }); err != nil {
		t.Error(err)
	}
}
