package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's own code around the call.
type span struct {
	name       string // "<layer>.<Function>"
	op         int    // id of the operation the call belongs to
	parent     int    // index of the enclosing span, -1 for a root
	start, end time.Duration
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer records nothing, which is how untraced runs call the same code.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add accumulates a work counter recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// snapshot returns copies of the recorded spans and counters.
func (t *tracer) snapshot() ([]span, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	return append([]span(nil), t.spans...), counts
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children are clipped to the
// parent and their overlaps counted once, so nested, back-to-back and
// concurrent children are all handled.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		reach = s.start
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerTimes sums self time (and, separately, inclusive duration) per
// span name prefix: "faultsim." collects every faultsim call.
type layerTimes struct {
	self, total map[string]time.Duration
}

func sumByName(spans []span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}}
	for i, s := range spans {
		lt.self[s.name] += self[i]
		lt.total[s.name] += s.end - s.start
	}
	return lt
}

// selfOf returns the summed self time of every span whose name starts
// with one of the prefixes.
func (lt layerTimes) selfOf(prefixes ...string) time.Duration {
	var d time.Duration
	for name, v := range lt.self {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				d += v
				break
			}
		}
	}
	return d
}

// overheadPct is the tracing overhead: how much faster the untraced run
// completed operations than the traced one, in percent.
func overheadPct(tracedOpsPerS, untracedOpsPerS float64) float64 {
	if tracedOpsPerS <= 0 {
		return 0
	}
	return 100 * (untracedOpsPerS/tracedOpsPerS - 1)
}
