package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/hdl"
	"repro/internal/netlist"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/tpg"
)

// seqTopoffFrames is the time-frame depth of the sequential top-off op.
const seqTopoffFrames = 6

// serialRef is the reference engine configuration: the serial
// interpreters, one-word lanes and single-pair PODEM.
var serialRef = engine.Options{Workers: 1, LaneWords: 1, PackPairs: 1}

// narrowRef is the reference where the serial sequential fault
// simulator, which re-simulates the whole applied prefix at every append,
// costs more than any run can hold: the paper-tables flow on a
// sequential circuit (about 45 s per b03 op against 1.4 s with the
// default engines) and campaign fault-simulation jobs on one (4.1 s
// against 15 ms for a b03 job of 2048 cycles in 256-cycle windows). The
// compiled engines at one lane word and one PODEM pair take other code
// paths than the defaults (eight-word sequential fault simulation,
// four-word mutant scoring, 32-pair PODEM packing). The paper-tables op's
// cross-check still re-simulates its pre-test with the serial fault
// simulator.
var narrowRef = engine.Options{LaneWords: 1, PackPairs: 1}

// referenceOptions returns the engine configuration an op's reference
// output is computed with.
func referenceOptions(workload string, c *hdl.Circuit) engine.Options {
	if workload == "paper-tables" && len(c.Regs) > 0 {
		return narrowRef
	}
	return serialRef
}

// jobReference is referenceOptions for a campaign job.
func jobReference(sp campaign.Spec) engine.Options {
	if sp.Kind == campaign.FaultSim {
		if c, err := circuits.Load(sp.Circuit); err == nil && len(c.Regs) > 0 {
			return narrowRef
		}
	}
	return serialRef
}

// flowResult is one flow op's output: the bytes compared against the
// reference, and an untimed cross-check that trusts neither engine.
type flowResult struct {
	out   []byte
	check func() error
}

// paperTables runs the paper's own experiment through core.Flow:
// elaboration, Table 1 (operator profiles) and Table 2 (test-oriented
// versus random sampling).
func paperTables(c *hdl.Circuit, seed int64, o engine.Options) (*flowResult, error) {
	f, err := core.NewFlow(c, core.Config{Seed: seed, Options: o})
	if err != nil {
		return nil, err
	}
	cmp, err := f.CompareSampling()
	if err != nil {
		return nil, err
	}
	full, err := f.FullTG()
	if err != nil {
		return nil, err
	}
	var attached []int
	if full.FaultSim != nil {
		attached = full.FaultSim.FirstDetected
	}
	return &flowResult{
		out:   tablesText(c.Name, cmp),
		check: tablesCheck(c, f.Netlist, f.Faults, len(f.Mutants), full.Seq, attached, cmp),
	}, nil
}

// topoff runs the ATPG top-off experiment through core.Flow: the
// combinational one on c432/c880, the sequential one on b06.
func topoff(c *hdl.Circuit, seed int64, o engine.Options) (*flowResult, error) {
	f, err := core.NewFlow(c, core.Config{Seed: seed, Options: o})
	if err != nil {
		return nil, err
	}
	var res any
	if f.Netlist.IsSequential() {
		res, err = f.SequentialATPGTopoff(seqTopoffFrames)
	} else {
		res, err = f.ATPGTopoff()
	}
	if err != nil {
		return nil, err
	}
	full, err := f.FullTG()
	if err != nil {
		return nil, err
	}
	return topoffResult(c, f.Netlist, f.Faults, full.Seq, res)
}

// tablesText is the compared output of a paper-tables op: the formatted
// Table 1 and Table 2 rows.
func tablesText(name string, cmp *core.SamplingComparison) []byte {
	return []byte(core.FormatTable1([]core.Table1Row{{Circuit: name, Profiles: cmp.Profiles}}) +
		core.FormatTable2([]*core.SamplingComparison{cmp}))
}

// topoffResult renders a top-off result (the formatted row plus the
// whole result as JSON, generated tests included) and builds its
// cross-check.
func topoffResult(c *hdl.Circuit, nl *netlist.Netlist, faults []faultsim.Fault, pre sim.Sequence, res any) (*flowResult, error) {
	var text string
	switch r := res.(type) {
	case *core.TopoffResult:
		text = core.FormatTopoff([]*core.TopoffResult{r})
	case *core.SeqTopoffResult:
		text = core.FormatSeqTopoff([]*core.SeqTopoffResult{r})
	}
	js, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return &flowResult{
		out:   append(append([]byte(text), js...), '\n'),
		check: topoffCheck(c, nl, faults, pre, res),
	}, nil
}

// sameOutput reports where got first differs from want, with the
// surrounding bytes of both.
func sameOutput(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	line := bytes.Count(want[:i], []byte("\n")) + 1
	window := func(b []byte) []byte { return b[max(i-40, 0):min(i+40, len(b))] }
	return fmt.Errorf("output differs from the reference at byte %d (line %d):\n got  %q\n want %q",
		i, line, window(got), window(want))
}

// serialSim fault-simulates with the serial single-fault evaluator, the
// engine the default configuration's compiled machines are checked by.
func serialSim(nl *netlist.Netlist, faults []faultsim.Fault) (*faultsim.Simulator, error) {
	return faultsim.Config{Options: engine.Options{Workers: 1}}.New(nl, faults)
}

// tablesCheck cross-checks a paper-tables op: both Table 2 strategies
// drew the same number of mutants, and the serial fault simulator gives
// the full-population TG sequence the coverage profile the default
// engine gave it (the incremental session attached to TG on sequential
// circuits, a one-shot compiled run on combinational ones).
func tablesCheck(c *hdl.Circuit, nl *netlist.Netlist, faults []faultsim.Fault, mutants int, pre sim.Sequence, attached []int, cmp *core.SamplingComparison) func() error {
	to, rnd := cmp.TestOriented.SampleSize, cmp.Random.SampleSize
	return func() error {
		if want := sampling.SampleSize(mutants, 0.10); to != rnd || to != want || to == 0 {
			return fmt.Errorf("%s: Table 2 sample sizes %d (test-oriented) and %d (random), want %d each", c.Name, to, rnd, want)
		}
		pats := tpg.ToPatterns(c, pre)
		ref, err := serialSim(nl, faults)
		if err != nil {
			return err
		}
		want, err := ref.Run(pats)
		if err != nil {
			return err
		}
		got := attached
		if got == nil {
			fs, err := faultsim.Config{}.New(nl, faults)
			if err != nil {
				return err
			}
			r, err := fs.Run(pats)
			if err != nil {
				return err
			}
			got = r.FirstDetected
		}
		for i := range want.FirstDetected {
			if got[i] != want.FirstDetected[i] {
				return fmt.Errorf("%s: pre-test fault %d first detected at %d, serial re-simulation says %d",
					c.Name, i, got[i], want.FirstDetected[i])
			}
		}
		return nil
	}
}

// topoffCheck cross-checks a top-off op with the serial fault simulator:
// the pre-test leaves the reported remaining faults at the reported
// coverage, and re-simulating each ATPG report's tests detects at least
// as many of its targeted faults as the report claims.
func topoffCheck(c *hdl.Circuit, nl *netlist.Netlist, faults []faultsim.Fault, pre sim.Sequence, res any) func() error {
	return func() error {
		ref, err := serialSim(nl, faults)
		if err != nil {
			return err
		}
		pr, err := ref.Run(tpg.ToPatterns(c, pre))
		if err != nil {
			return err
		}
		var remaining []faultsim.Fault
		for i, d := range pr.FirstDetected {
			if d < 0 {
				remaining = append(remaining, faults[i])
			}
		}
		switch r := res.(type) {
		case *core.TopoffResult:
			if err := preTestAgrees(c.Name, pr, len(remaining), r.PreTestCoverage, r.Remaining); err != nil {
				return err
			}
			if err := combDetects(c.Name+" baseline", nl, faults, r.Baseline.Vectors, r.Baseline.Detected); err != nil {
				return err
			}
			return combDetects(c.Name+" top-off", nl, remaining, r.Topoff.Vectors, r.Topoff.Detected)
		case *core.SeqTopoffResult:
			if err := preTestAgrees(c.Name, pr, len(remaining), r.PreTestCoverage, r.Remaining); err != nil {
				return err
			}
			if err := seqDetects(c.Name+" baseline", nl, faults, r.Baseline.Tests, r.Baseline.Detected); err != nil {
				return err
			}
			return seqDetects(c.Name+" top-off", nl, remaining, r.Topoff.Tests, r.Topoff.Detected)
		}
		return fmt.Errorf("%s: unexpected top-off result %T", c.Name, res)
	}
}

func preTestAgrees(name string, pr *faultsim.Result, remaining int, coverage float64, claimed int) error {
	if remaining != claimed || pr.Coverage() != coverage {
		return fmt.Errorf("%s: pre-test leaves %d faults at coverage %v, serial re-simulation says %d at %v",
			name, claimed, coverage, remaining, pr.Coverage())
	}
	return nil
}

func combDetects(what string, nl *netlist.Netlist, faults []faultsim.Fault, vectors []faultsim.Pattern, claimed int) error {
	if len(faults) == 0 {
		return nil
	}
	s, err := serialSim(nl, faults)
	if err != nil {
		return err
	}
	r, err := s.Run(vectors)
	if err != nil {
		return err
	}
	if got := r.DetectedCount(); got < claimed {
		return fmt.Errorf("%s: ATPG claims %d detected, its %d vectors detect %d", what, claimed, len(vectors), got)
	}
	return nil
}

func seqDetects(what string, nl *netlist.Netlist, faults []faultsim.Fault, tests [][]faultsim.Pattern, claimed int) error {
	if len(faults) == 0 {
		return nil
	}
	s, err := serialSim(nl, faults)
	if err != nil {
		return err
	}
	got := 0
	for _, t := range tests {
		r, err := s.AppendTest(t)
		if err != nil {
			return err
		}
		got = r.DetectedCount()
	}
	if got < claimed {
		return fmt.Errorf("%s: ATPG claims %d detected, its %d tests detect %d", what, claimed, len(tests), got)
	}
	return nil
}
