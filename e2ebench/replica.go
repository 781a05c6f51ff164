package main

import (
	"sort"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/faultsim"
	"repro/internal/hdl"
	"repro/internal/metrics"
	"repro/internal/mutation"
	"repro/internal/mutscore"
	"repro/internal/netlist"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/tpg"
)

// The traced run cannot see inside core.Flow, so it runs the same
// experiments by calling each layer directly, in the order core.Flow
// calls them and with core.Config's defaults. Its outputs go through the
// same reference check as the flow's, so a replica that drifted from
// core.Flow fails the run instead of timing different work.
const (
	sampleFrac    = 0.10
	randHorizon   = 2048
	equivBudget   = 1024
	weightFloor   = 0.05
	repeats       = 5
	profileCap    = 40
	minProfileLen = 12
)

// replica is one traced flow op: core.Flow's state, with every layer
// call wrapped in a span.
type replica struct {
	tr  *tracer
	op  int
	cur int // enclosing span

	c       *hdl.Circuit
	seed    int64
	nl      *netlist.Netlist
	mutants []*mutation.Mutant
	faults  []faultsim.Fault
	fsim    *faultsim.Simulator
	rand    []float64

	sess   *tpg.Session
	mutIdx map[*mutation.Mutant]int
	full   *tpg.Result
	scorer *mutscore.Scorer
	eq     []bool
}

// call runs fn inside a span named name, nested under the current span.
func (r *replica) call(name string, fn func() error) error {
	id := r.tr.begin(r.op, r.cur, name)
	prev := r.cur
	r.cur = id
	err := fn()
	r.cur = prev
	r.tr.end(id)
	return err
}

// faultsimRun is a traced faultsim.Simulator.Run outside any TG session.
func (r *replica) faultsimRun(s *faultsim.Simulator, pats []faultsim.Pattern) (res *faultsim.Result, err error) {
	err = r.call("faultsim.Run", func() error {
		res, err = s.Run(pats)
		return err
	})
	r.tr.add("faultsim.fault_cycles", float64(len(s.Faults())*len(pats)))
	return res, err
}

// newReplica elaborates like core.NewFlow: synthesize, enumerate mutants
// and faults, and fault-simulate the pseudo-random reference sequence.
func newReplica(tr *tracer, op int, c *hdl.Circuit, seed int64) (*replica, error) {
	r := &replica{tr: tr, op: op, cur: -1, c: c, seed: seed}
	err := r.call("core.NewFlow", func() error {
		if err := r.call("synth.Synthesize", func() (err error) {
			r.nl, err = synth.Synthesize(c)
			return err
		}); err != nil {
			return err
		}
		_ = r.call("mutation.Generate", func() error {
			r.mutants = mutation.Generate(c)
			return nil
		})
		if err := r.call("faultsim.New", func() (err error) {
			r.faults = faultsim.Faults(r.nl)
			r.fsim, err = faultsim.Config{}.New(r.nl, r.faults)
			return err
		}); err != nil {
			return err
		}
		res, err := r.faultsimRun(r.fsim, tpg.ToPatterns(c, tpg.RawRandomSequence(c, randHorizon, seed+1000)))
		if err != nil {
			return err
		}
		r.rand = res.Curve()
		return nil
	})
	return r, err
}

// generate is core.Flow's generateMode: one TG campaign on the shared
// session, with the fault simulator attached on sequential circuits.
func (r *replica) generate(targets []*mutation.Mutant, seedOffset int64, mode tpg.Mode) (*tpg.Result, error) {
	tgSeed := r.seed + 1
	if r.sess == nil {
		if err := r.call("tpg.NewSession", func() (err error) {
			r.sess, err = tpg.NewSession(r.c, r.mutants, &tpg.Options{Seed: tgSeed})
			return err
		}); err != nil {
			return nil, err
		}
		if r.nl.IsSequential() {
			r.sess.AttachFaultSim(r.fsim)
		}
		r.mutIdx = make(map[*mutation.Mutant]int, len(r.mutants))
		for i, m := range r.mutants {
			r.mutIdx[m] = i
		}
	}
	idx := make([]int, len(targets))
	for i, m := range targets {
		idx[i] = r.mutIdx[m]
	}
	var res *tpg.Result
	err := r.call("tpg.Generate", func() (err error) {
		res, err = r.sess.Generate(idx, &tpg.Options{Mode: mode, Seed: tgSeed + seedOffset})
		return err
	})
	if err != nil {
		return nil, err
	}
	r.tr.add("tpg.generate_calls", 1)
	r.tr.add("tpg.seq_cycles", float64(len(res.Seq)))
	r.tr.add("tpg.targets", float64(len(targets)))
	r.tr.add("tpg.killed", float64(res.KilledCount()))
	return res, nil
}

// campaignFaultSim is core.Flow's: the attached session's result, or a
// one-shot run of the sequence.
func (r *replica) campaignFaultSim(tg *tpg.Result) (*faultsim.Result, error) {
	if tg.FaultSim != nil {
		return tg.FaultSim, nil
	}
	return r.faultsimRun(r.fsim, tpg.ToPatterns(r.c, tg.Seq))
}

func (r *replica) fullTG() (*tpg.Result, error) {
	if r.full == nil {
		full, err := r.generate(r.mutants, 2, 0)
		if err != nil {
			return nil, err
		}
		r.full = full
	}
	return r.full, nil
}

func (r *replica) fullScorer() (*mutscore.Scorer, error) {
	if r.scorer == nil {
		if err := r.call("mutscore.NewScorer", func() (err error) {
			r.scorer, err = mutscore.Config{}.NewScorer(r.c, r.mutants)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return r.scorer, nil
}

func (r *replica) equivalent() ([]bool, error) {
	if r.eq != nil {
		return r.eq, nil
	}
	full, err := r.fullTG()
	if err != nil {
		return nil, err
	}
	scorer, err := r.fullScorer()
	if err != nil {
		return nil, err
	}
	err = r.call("mutscore.EstimateEquivalence", func() (err error) {
		r.eq, err = scorer.EstimateEquivalence([]sim.Sequence{full.Seq},
			&mutscore.EquivalenceOptions{Budget: equivBudget, Seed: r.seed + 2000})
		return err
	})
	r.tr.add("mutscore.mutant_cycles", float64(len(r.mutants)*(len(full.Seq)+equivBudget)))
	return r.eq, err
}

// profileOperators is core.Flow.ProfileOperators (Table 1).
func (r *replica) profileOperators() ([]core.OperatorProfile, error) {
	classes := mutation.ByOperator(r.mutants)
	ops := make([]mutation.Operator, 0, len(classes))
	for op := range classes {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	var out []core.OperatorProfile
	for opIdx, op := range ops {
		class := classes[op]
		var effs []metrics.Efficiency
		p := core.OperatorProfile{Op: op, Mutants: len(class)}
		for rep := range repeats {
			probe := class
			if len(probe) > profileCap {
				probe = sampling.Random(class, profileCap, r.seed+int64(777+101*opIdx+rep))
			}
			p.Probed = len(probe)
			off := int64(1000 + 37*opIdx + rep)
			tg, err := r.generate(probe, off, tpg.PerMutantSkip)
			if err != nil {
				return nil, err
			}
			if len(tg.Seq) < minProfileLen {
				if tg, err = r.generate(probe, off, tpg.PerMutant); err != nil {
					return nil, err
				}
			}
			fres, err := r.campaignFaultSim(tg)
			if err != nil {
				return nil, err
			}
			effs = append(effs, metrics.Compare(fres.Curve(), r.rand))
			p.Killed += tg.KilledCount()
			p.SeqLen += len(tg.Seq)
		}
		p.Killed /= repeats
		p.SeqLen /= repeats
		p.Eff = meanEfficiency(effs)
		out = append(out, p)
	}
	return out, nil
}

// meanEfficiency is core's averaging of repeated efficiency measurements,
// NLFCE re-derived from the averaged factors.
func meanEfficiency(effs []metrics.Efficiency) metrics.Efficiency {
	var m metrics.Efficiency
	if len(effs) == 0 {
		return m
	}
	for _, e := range effs {
		m.MFC += e.MFC
		m.RFC += e.RFC
		m.DeltaFCPts += e.DeltaFCPts
		m.DeltaLPct += e.DeltaLPct
		m.LMut += e.LMut
		m.LRand += e.LRand
		m.RandomSaturated = m.RandomSaturated || e.RandomSaturated
	}
	n := float64(len(effs))
	m.MFC /= n
	m.RFC /= n
	m.DeltaFCPts /= n
	m.DeltaLPct /= n
	m.LMut /= len(effs)
	m.LRand /= len(effs)
	m.NLFCE = m.DeltaFCPts * m.DeltaLPct
	return m
}

// evalStrategy is core.Flow's Table 2 half-row measurement.
func (r *replica) evalStrategy(name string, draw func(rep int64) []*mutation.Mutant) (*core.StrategyResult, error) {
	eq, err := r.equivalent()
	if err != nil {
		return nil, err
	}
	scorer, err := r.fullScorer()
	if err != nil {
		return nil, err
	}
	out := &core.StrategyResult{Strategy: name}
	var effs []metrics.Efficiency
	for rep := range repeats {
		sample := draw(int64(rep * 1009))
		tg, err := r.generate(sample, int64(5000+991*rep), 0)
		if err != nil {
			return nil, err
		}
		var killed []bool
		if err := r.call("mutscore.Kills", func() (err error) {
			killed, err = scorer.Kills(tg.Seq)
			return err
		}); err != nil {
			return nil, err
		}
		r.tr.add("mutscore.mutant_cycles", float64(len(r.mutants)*len(tg.Seq)))
		fres, err := r.campaignFaultSim(tg)
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			out.SampleSize = len(sample)
			out.Alloc = make(map[mutation.Operator]int)
			for _, m := range sample {
				out.Alloc[m.Op]++
			}
		}
		out.SeqLen += len(tg.Seq)
		out.MSPct += 100 * mutscore.Score(killed, eq)
		effs = append(effs, metrics.Compare(fres.Curve(), r.rand))
	}
	out.SeqLen /= repeats
	out.MSPct /= float64(repeats)
	out.Eff = meanEfficiency(effs)
	return out, nil
}

// tracedPaperTables is paperTables through the layers.
func tracedPaperTables(tr *tracer, op int, c *hdl.Circuit, seed int64) (*flowResult, error) {
	r, err := newReplica(tr, op, c, seed)
	if err != nil {
		return nil, err
	}
	profiles, err := r.profileOperators()
	if err != nil {
		return nil, err
	}
	weights := core.DeriveWeights(profiles, weightFloor)
	n := sampling.SampleSize(len(r.mutants), sampleFrac)
	to, err := r.evalStrategy("test-oriented", func(rep int64) []*mutation.Mutant {
		return sampling.Weighted(r.mutants, n, weights, seed+10+rep)
	})
	if err != nil {
		return nil, err
	}
	rnd, err := r.evalStrategy("random", func(rep int64) []*mutation.Mutant {
		return sampling.Random(r.mutants, n, seed+20+rep)
	})
	if err != nil {
		return nil, err
	}
	cmp := &core.SamplingComparison{Circuit: c.Name, TestOriented: *to, Random: *rnd, Weights: weights, Profiles: profiles}
	var attached []int
	if r.full.FaultSim != nil {
		attached = r.full.FaultSim.FirstDetected
	}
	return &flowResult{
		out:   tablesText(c.Name, cmp),
		check: tablesCheck(c, r.nl, r.faults, len(r.mutants), r.full.Seq, attached, cmp),
	}, nil
}

// tracedTopoff is topoff through the layers: core.Flow's ATPGTopoff or
// SequentialATPGTopoff.
func tracedTopoff(tr *tracer, op int, c *hdl.Circuit, seed int64) (*flowResult, error) {
	r, err := newReplica(tr, op, c, seed)
	if err != nil {
		return nil, err
	}
	seq := r.nl.IsSequential()
	var model *atpg.Model
	if err := r.call("atpg.NewModel", func() (err error) {
		if seq {
			model, err = atpg.NewSequentialModel(r.nl, seqTopoffFrames)
		} else {
			model, err = atpg.NewModel(r.nl)
		}
		return err
	}); err != nil {
		return nil, err
	}
	run := func(faults []faultsim.Fault, fill int64) (comb *atpg.Report, sq *atpg.SeqReport, err error) {
		err = r.call("atpg.Generate", func() (err error) {
			if seq {
				sq, err = model.GenerateSequential(faults, &atpg.SeqOptions{Frames: seqTopoffFrames, FillSeed: fill})
			} else {
				comb, err = model.Generate(faults, &atpg.Options{FillSeed: fill})
			}
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		if seq {
			r.countATPG(sq.Total, sq.PodemCalls, sq.Backtracks, sq.Aborted, sq.Untestable, len(sq.Tests))
		} else {
			r.countATPG(comb.Total, comb.PodemCalls, comb.Backtracks, comb.Aborted, comb.Redundant, len(comb.Vectors))
		}
		return comb, sq, nil
	}
	fill := seed + 30
	if seq {
		fill = seed + 40
	}
	bComb, bSeq, err := run(r.faults, fill)
	if err != nil {
		return nil, err
	}
	full, err := r.fullTG()
	if err != nil {
		return nil, err
	}
	pre, err := r.campaignFaultSim(full)
	if err != nil {
		return nil, err
	}
	var remaining []faultsim.Fault
	for i, d := range pre.FirstDetected {
		if d < 0 {
			remaining = append(remaining, r.faults[i])
		}
	}
	tComb, tSeq, err := run(remaining, fill+1)
	if err != nil {
		return nil, err
	}
	var res any
	if seq {
		res = &core.SeqTopoffResult{Circuit: c.Name, Frames: seqTopoffFrames, Baseline: bSeq,
			PreTestLen: len(full.Seq), PreTestCoverage: pre.Coverage(), Remaining: len(remaining), Topoff: tSeq}
	} else {
		res = &core.TopoffResult{Circuit: c.Name, Baseline: bComb,
			PreTestLen: len(full.Seq), PreTestCoverage: pre.Coverage(), Remaining: len(remaining), Topoff: tComb}
	}
	return topoffResult(c, r.nl, r.faults, full.Seq, res)
}

func (r *replica) countATPG(targets, calls, backtracks, aborted, redundant, tests int) {
	r.tr.add("atpg.targets", float64(targets))
	r.tr.add("atpg.podem_calls", float64(calls))
	r.tr.add("atpg.backtracks", float64(backtracks))
	r.tr.add("atpg.aborted", float64(aborted))
	r.tr.add("atpg.redundant", float64(redundant))
	r.tr.add("atpg.tests", float64(tests))
}
