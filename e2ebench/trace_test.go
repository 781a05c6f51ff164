package main

import (
	"math"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	// op [0,100): a [10,40) with nested a1 [15,25), then b [40,70)
	// back to back with a, and c [60,90) overlapping b. A second root
	// [0,50) with a child running past its end [30,80).
	spans := []span{
		{name: "op", parent: -1, start: 0, end: ms(100)},
		{name: "a", parent: 0, start: ms(10), end: ms(40)},
		{name: "a1", parent: 1, start: ms(15), end: ms(25)},
		{name: "b", parent: 0, start: ms(40), end: ms(70)},
		{name: "c", parent: 0, start: ms(60), end: ms(90)},
		{name: "r2", parent: -1, start: 0, end: ms(50)},
		{name: "late", parent: 5, start: ms(30), end: ms(80)},
	}
	want := []time.Duration{ms(20), ms(20), ms(10), ms(30), ms(30), ms(30), ms(50)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].name, got[i], want[i])
		}
	}
	lt := sumByName(append(spans, span{name: "a", parent: -1, start: ms(200), end: ms(205)}))
	if lt.self["a"] != ms(25) || lt.total["a"] != ms(35) {
		t.Errorf("a: self %v total %v, want 25ms and 35ms", lt.self["a"], lt.total["a"])
	}
	if d := lt.selfOf("a", "b"); d != ms(25+10+30) {
		t.Errorf("selfOf(a, b) = %v, want 65ms (prefix a matches a1)", d)
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin(3, -1, "op")
	child := tr.begin(3, root, "faultsim.Run")
	tr.end(child)
	tr.end(root)
	tr.add("faultsim.fault_cycles", 5)
	spans, counts := tr.snapshot()
	if len(spans) != 2 || spans[1].parent != 0 || spans[1].op != 3 || spans[1].end < spans[1].start {
		t.Fatalf("spans %+v", spans)
	}
	if counts["faultsim.fault_cycles"] != 5 {
		t.Fatalf("counts %v", counts)
	}
	var none *tracer // untraced runs record nothing
	none.end(none.begin(0, -1, "op"))
	none.add("x", 1)
}

func TestOverheadAndQuantile(t *testing.T) {
	if got := overheadPct(8, 10); math.Abs(got-25) > 1e-9 {
		t.Errorf("overheadPct(8, 10) = %v, want 25", got)
	}
	if got := overheadPct(10, 10); got != 0 {
		t.Errorf("overheadPct(10, 10) = %v, want 0", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-9 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
