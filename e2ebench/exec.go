package main

import (
	"repro/internal/atpg"
	"repro/internal/campaign"
	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/mutation"
	"repro/internal/synth"
	"repro/internal/tpg"
)

// execTraced runs one campaign job in process with the default engines,
// calling each layer directly in the order campaign.Execute does, and
// returns its canonical report bytes. Like the flow replica, its output
// is checked against the reference, so it cannot drift from
// campaign.Execute unnoticed.
func execTraced(tr *tracer, op int, sp campaign.Spec) ([]byte, error) {
	r := &replica{tr: tr, op: op, cur: -1}
	var out []byte
	err := r.call("campaign.Execute", func() error {
		rep, err := r.execute(sp)
		if err != nil {
			return err
		}
		out, err = rep.Encode()
		return err
	})
	return out, err
}

// execute is campaign.Execute: jobs with a canonical decomposition run
// as that decomposition, shard by shard, and merge.
func (r *replica) execute(sp campaign.Spec) (*campaign.Report, error) {
	key, err := campaign.JobKey(sp)
	if err != nil {
		return nil, err
	}
	if sp.Kind != campaign.FaultSim {
		shards, err := campaign.Shards(sp, 0)
		if err != nil {
			return nil, err
		}
		if shards != nil {
			reports := make([]*campaign.Report, len(shards))
			for i, shard := range shards {
				if reports[i], err = r.execute(shard); err != nil {
					return nil, err
				}
			}
			return campaign.MergeShards(sp, key, reports)
		}
	}
	c, err := circuits.Load(sp.Circuit)
	if err != nil {
		return nil, err
	}
	if err := r.call("synth.Synthesize", func() (err error) {
		r.nl, err = synth.Synthesize(c)
		return err
	}); err != nil {
		return nil, err
	}
	fp, err := r.nl.Fingerprint()
	if err != nil {
		return nil, err
	}
	r.c, r.faults = c, faultsim.Faults(r.nl)
	lo, hi := 0, len(r.faults)
	if sp.FaultLo != 0 || sp.FaultHi != 0 {
		lo, hi = sp.FaultLo, sp.FaultHi
	}
	rep := &campaign.Report{Kind: sp.Kind, Key: key, Fingerprint: fp, Circuit: sp.Circuit, Seed: sp.Seed}
	switch sp.Kind {
	case campaign.FaultSim:
		err = r.execFaultSim(sp, lo, hi, rep)
	case campaign.MutationTG:
		err = r.execTG(sp, rep)
	default:
		err = r.execATPG(sp, lo, hi, rep)
	}
	return rep, err
}

// execFaultSim applies the job's stimulus in Window-cycle appends to one
// incremental session over the fault shard.
func (r *replica) execFaultSim(sp campaign.Spec, lo, hi int, rep *campaign.Report) error {
	tests := tpg.ToPatterns(r.c, tpg.RawRandomSequence(r.c, sp.Horizon, sp.Seed))
	var include []int
	if lo != 0 || hi != len(r.faults) {
		for i := lo; i < hi; i++ {
			include = append(include, i)
		}
	}
	var fs *faultsim.Simulator
	if err := r.call("faultsim.New", func() (err error) {
		fs, err = faultsim.Config{}.New(r.nl, r.faults)
		return err
	}); err != nil {
		return err
	}
	win := sp.Window
	if win <= 0 || win > sp.Horizon {
		win = sp.Horizon
	}
	for applied := 0; applied < len(tests); applied += win {
		next := min(applied+win, len(tests))
		err := r.call("faultsim.Append", func() (err error) {
			if applied == 0 {
				_, err = fs.RunOn(tests[:next], include)
			} else {
				_, err = fs.Append(tests[applied:next])
			}
			return err
		})
		if err != nil {
			return err
		}
		r.tr.add("faultsim.fault_cycles", float64((hi-lo)*(next-applied)))
	}
	res := fs.Current().Clone()
	rep.Faults = hi - lo
	rep.Patterns = res.Patterns
	rep.FirstDetected = res.FirstDetected
	for _, d := range res.FirstDetected {
		if d >= 0 {
			rep.Detected++
		}
	}
	return nil
}

// execTG is one mutation-TG round: tpg.MutationTests, which is a session
// over the targets generating for all of them.
func (r *replica) execTG(sp campaign.Spec, rep *campaign.Report) error {
	var ops []mutation.Operator
	if sp.Operator != "" {
		op, err := mutation.ParseOperator(sp.Operator)
		if err != nil {
			return err
		}
		ops = append(ops, op)
	}
	_ = r.call("mutation.Generate", func() error {
		r.mutants = mutation.Generate(r.c, ops...)
		return nil
	})
	var res *tpg.Result
	if err := r.call("tpg.NewSession", func() (err error) {
		r.sess, err = tpg.NewSession(r.c, r.mutants, &tpg.Options{Seed: sp.Seed, MaxLen: sp.MaxLen})
		return err
	}); err != nil {
		return err
	}
	if err := r.call("tpg.Generate", func() (err error) {
		res, err = r.sess.Generate(nil, nil)
		return err
	}); err != nil {
		return err
	}
	r.tr.add("tpg.generate_calls", 1)
	r.tr.add("tpg.seq_cycles", float64(len(res.Seq)))
	r.tr.add("tpg.targets", float64(len(r.mutants)))
	r.tr.add("tpg.killed", float64(res.KilledCount()))
	rep.Targets = len(r.mutants)
	rep.Killed = res.KilledCount()
	rep.Rounds = res.Rounds
	rep.SeqLen = len(res.Seq)
	rep.SeqHash = hashPatterns("campaign/tg/seq", tpg.ToPatterns(r.c, res.Seq))
	return nil
}

// execATPG is PODEM over the fault shard, by time-frame expansion on
// sequential circuits; the package-level atpg functions are a fresh
// model plus one run.
func (r *replica) execATPG(sp campaign.Spec, lo, hi int, rep *campaign.Report) error {
	sub := r.faults[lo:hi]
	seq := r.nl.IsSequential()
	var model *atpg.Model
	if err := r.call("atpg.NewModel", func() (err error) {
		if seq {
			model, err = atpg.NewSequentialModel(r.nl, sp.Frames)
		} else {
			model, err = atpg.NewModel(r.nl)
		}
		return err
	}); err != nil {
		return err
	}
	return r.call("atpg.Generate", func() error {
		if seq {
			res, err := model.GenerateSequential(sub, &atpg.SeqOptions{Frames: sp.Frames, MaxBacktracks: sp.MaxBacktracks, FillSeed: sp.Seed})
			if err != nil {
				return err
			}
			r.countATPG(res.Total, res.PodemCalls, res.Backtracks, res.Aborted, res.Untestable, len(res.Tests))
			rep.Faults, rep.Detected, rep.Redundant, rep.Aborted = res.Total, res.Detected, res.Untestable, res.Aborted
			rep.Backtracks, rep.PodemCalls, rep.Vectors = res.Backtracks, res.PodemCalls, len(res.Tests)
			rep.TestHash = hashTests("campaign/atpg/tests", res.Tests)
			return nil
		}
		res, err := model.Generate(sub, &atpg.Options{MaxBacktracks: sp.MaxBacktracks, FillSeed: sp.Seed})
		if err != nil {
			return err
		}
		r.countATPG(res.Total, res.PodemCalls, res.Backtracks, res.Aborted, res.Redundant, len(res.Vectors))
		rep.Faults, rep.Detected, rep.Redundant, rep.Aborted = res.Total, res.Detected, res.Redundant, res.Aborted
		rep.Backtracks, rep.PodemCalls, rep.Vectors = res.Backtracks, res.PodemCalls, len(res.Vectors)
		rep.TestHash = hashPatterns("campaign/atpg/tests", res.Vectors)
		return nil
	})
}

// hashPatterns and hashTests are the campaign reports' content hashes
// of generated stimulus.
func hashPatterns(tag string, tests []faultsim.Pattern) string {
	d := engine.NewDigest(tag)
	d.Int("n", int64(len(tests)))
	for _, p := range tests {
		d.Str("p", string(p))
	}
	return d.Sum()
}

func hashTests(tag string, tests [][]faultsim.Pattern) string {
	d := engine.NewDigest(tag)
	d.Int("n", int64(len(tests)))
	for _, t := range tests {
		d.Str("t", hashPatterns(tag, t))
	}
	return d.Sum()
}
