package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/hdl"
)

const (
	// cyclesPerSecond sizes a flow schedule to the run: no rotation cycle
	// of either flow workload takes less than half a second.
	cyclesPerSecond = 2
	// flowSetups is how often a run repeats its set-up.
	flowSetups = 301
)

// flowRecord is one completed flow op.
type flowRecord struct {
	op      int
	latency time.Duration
	res     *flowResult
	err     error
}

// loopFlow is the closed loop of one client: it issues ops in schedule
// order and stops at the first cycle boundary at or after dur (limit > 0
// instead stops after exactly limit ops).
func loopFlow(n, cycle, limit int, dur time.Duration, run func(i int) (*flowResult, error)) ([]flowRecord, time.Duration) {
	start := time.Now()
	var recs []flowRecord
	for i := range n {
		if limit > 0 && i == limit {
			break
		}
		if limit == 0 && i%cycle == 0 && time.Since(start) >= dur {
			break
		}
		t0 := time.Now()
		res, err := run(i)
		recs = append(recs, flowRecord{op: i, latency: time.Since(t0), res: res, err: err})
	}
	return recs, time.Since(start)
}

// runFlow runs the paper-tables or atpg-topoff workload.
func runFlow(rc runConfig) (*result, error) {
	var run func(*hdl.Circuit, int64, engine.Options) (*flowResult, error)
	var traced func(*tracer, int, *hdl.Circuit, int64) (*flowResult, error)
	switch rc.workload {
	case "paper-tables":
		run, traced = paperTables, tracedPaperTables
	default:
		run, traced = topoff, tracedTopoff
	}

	var ops []flowOp
	var rot []string
	circs := map[string]*hdl.Circuit{}
	setup, err := medianSetup(flowSetups, func() (func(), error) {
		var err error
		if rot, err = flowRotation(rc.workload, rc.seed); err != nil {
			return nil, err
		}
		if ops, err = flowSchedule(rc.workload, rc.seed, cyclesPerSecond*int(rc.dur/time.Second)+1); err != nil {
			return nil, err
		}
		for _, name := range rot {
			if circs[name], err = circuits.Load(name); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	untraced := func(i int) (*flowResult, error) {
		return run(circs[ops[i].circuit], ops[i].seed, defaultEngines)
	}

	var tr *tracer
	timed := untraced
	if rc.trace {
		tr = newTracer()
		timed = func(i int) (*flowResult, error) {
			return traced(tr, i, circs[ops[i].circuit], ops[i].seed)
		}
	}
	sampler := startRSS()
	recs, wall := loopFlow(len(ops), len(rot), 0, rc.dur, timed)
	rss := sampler.finish()
	var plain []flowRecord
	var plainWall time.Duration
	if rc.trace {
		// The same ops again without spans: the difference is the
		// tracing overhead.
		plain, plainWall = loopFlow(len(ops), len(rot), len(recs), 0, untraced)
	}

	// Untimed: every op's output against the reference configuration on
	// the same input, then the op's own cross-check.
	nOps := len(recs)
	bad := make([]error, nOps)
	parallel(nOps, func(i int) {
		bad[i] = verifyFlow(rc.workload, circs[ops[i].circuit], ops[i].seed, run, recs[i], plain)
	})
	attempted, failed := nOps, 0
	for i, err := range bad {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "e2ebench: op %d (%s seed %d): %v\n", i, ops[i].circuit, ops[i].seed, err)
		}
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if !rc.trace {
		var lat []float64
		for _, r := range recs {
			lat = append(lat, r.latency.Seconds())
		}
		res.Metrics = endToEnd(setup, nOps-failed, wall, lat, rss)
		return res, nil
	}
	spans, counts := tr.snapshot()
	res.Metrics = perLayer(layerInputs{
		spans: spans, counts: counts, ops: nOps,
		attempted: attempted, failed: failed,
		overhead: overheadPct(float64(nOps)/wall.Seconds(), float64(len(plain))/plainWall.Seconds()),
	})
	return res, nil
}

// verifyFlow checks one op: its output (and, in a traced run, the
// untraced repeat's output) equals the reference configuration's output
// on the same input, and its cross-check passes.
func verifyFlow(workload string, c *hdl.Circuit, seed int64, run func(*hdl.Circuit, int64, engine.Options) (*flowResult, error), rec flowRecord, plain []flowRecord) error {
	outs := []flowRecord{rec}
	if rec.op < len(plain) {
		outs = append(outs, plain[rec.op])
	}
	for _, r := range outs {
		if r.err != nil {
			return r.err
		}
	}
	ref, err := run(c, seed, referenceOptions(workload, c))
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	for _, r := range outs {
		if err := sameOutput(r.res.out, ref.out); err != nil {
			return err
		}
		if err := r.res.check(); err != nil {
			return err
		}
	}
	return nil
}
