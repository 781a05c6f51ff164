package main

import (
	"fmt"
	"math/rand"

	"repro/internal/campaign"
	"repro/internal/circuits"
	"repro/internal/mutation"
)

// flowOp is one closed-loop operation of a flow workload: a circuit and
// the core.Config.Seed it runs at.
type flowOp struct {
	circuit string
	seed    int64
}

// flowRotation is the circuit order of one rotation cycle. The benchmark
// issues whole cycles, so every run weighs each circuit equally.
func flowRotation(workload string, seed int64) ([]string, error) {
	var base []string
	switch workload {
	case "paper-tables":
		base = []string{"b03", "c499"}
	case "atpg-topoff":
		base = []string{"c432", "c880", "b06"}
	default:
		return nil, fmt.Errorf("no flow rotation for workload %q", workload)
	}
	rng := rand.New(rand.NewSource(seed))
	out := append([]string(nil), base...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// flowSchedule returns cycles whole rotation cycles of operations, each
// at a fresh flow seed.
func flowSchedule(workload string, seed int64, cycles int) ([]flowOp, error) {
	rot, err := flowRotation(workload, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	used := make(map[int64]bool)
	ops := make([]flowOp, 0, cycles*len(rot))
	for range cycles {
		for _, name := range rot {
			s := freshSeed(rng, used)
			ops = append(ops, flowOp{circuit: name, seed: s})
		}
	}
	return ops, nil
}

// freshSeed draws a positive seed not drawn before in this schedule.
func freshSeed(rng *rand.Rand, used map[int64]bool) int64 {
	for {
		s := rng.Int63n(1<<40) + 1
		if !used[s] {
			used[s] = true
			return s
		}
	}
}

// campaignOp is one submission of the campaign-service workload. A
// repeat resubmits the spec of an earlier fresh operation of the same
// client, whose job has completed before the repeat is issued (the
// client is a closed loop), so the server must answer it from cache.
type campaignOp struct {
	spec   campaign.Spec
	repeat bool
}

// The job mix follows the campaign-service specification: the three job
// kinds (fault simulation, TG, ATPG) weigh the same, and within a kind
// every listed circuit weighs the same. freshCycle is one period of that
// mix by campaignMix index: 3 b03 and 3 c880 fault simulations, 3 b01 and
// 3 b03 TG rounds, 2 c432, 2 c880 and 2 b06 ATPG runs, interleaved so
// that any prefix holds the kinds in proportion. A fixed cycle keeps
// every run's mix the same; seeds change the jobs' parameters.
var freshCycle = []int{0, 2, 4, 1, 3, 5, 0, 2, 6, 1, 3, 4, 0, 2, 5, 1, 3, 6}

// clientOffset starts the second client half a cycle later, so the two
// clients do not run the same kind of job at the same time.
const clientOffset = 9

// jobTemplate makes one fresh job of the mix from a fresh seed.
type jobTemplate func(rng *rand.Rand, seed int64) campaign.Spec

// campaignMix returns the fresh-job mix. The operator lists come from the
// circuits' mutant populations, so a TG job always has targets.
func campaignMix() ([]jobTemplate, error) {
	ops := map[string][]string{}
	for _, name := range []string{"b01", "b03"} {
		c, err := circuits.Load(name)
		if err != nil {
			return nil, err
		}
		counts := mutation.CountByOperator(mutation.Generate(c))
		for _, op := range mutation.AllOperators() {
			if counts[op] > 0 {
				ops[name] = append(ops[name], string(op))
			}
		}
	}
	tg := func(name string) func(*rand.Rand, int64) campaign.Spec {
		return func(rng *rand.Rand, seed int64) campaign.Spec {
			return campaign.Spec{Kind: campaign.MutationTG, Circuit: name, Seed: seed,
				Operator: ops[name][rng.Intn(len(ops[name]))], MaxLen: 64}
		}
	}
	atpgComb := func(name string) func(*rand.Rand, int64) campaign.Spec {
		return func(rng *rand.Rand, seed int64) campaign.Spec {
			return campaign.Spec{Kind: campaign.ATPG, Circuit: name, Seed: seed,
				MaxBacktracks: 64 + rng.Intn(193)}
		}
	}
	return []jobTemplate{
		func(_ *rand.Rand, seed int64) campaign.Spec {
			return campaign.Spec{Kind: campaign.FaultSim, Circuit: "b03", Seed: seed, Horizon: 2048, Window: 256}
		},
		func(_ *rand.Rand, seed int64) campaign.Spec {
			return campaign.Spec{Kind: campaign.FaultSim, Circuit: "c880", Seed: seed, Horizon: 2048}
		},
		tg("b01"),
		tg("b03"),
		atpgComb("c432"),
		atpgComb("c880"),
		func(_ *rand.Rand, seed int64) campaign.Spec {
			return campaign.Spec{Kind: campaign.ATPG, Circuit: "b06", Seed: seed, Frames: 6}
		},
	}, nil
}

// campaignSchedule returns pairs op pairs per client. The first op of a
// pair is a fresh job, the next in the client's freshCycle; the second
// repeats a seeded pick among the fresh jobs the client has already run,
// so exactly half the submissions repeat a completed key. Fresh ops get
// distinct seeds, so no two fresh jobs share a key (or a shard key), and
// the number of cache hits is exactly the number of repeats issued.
func campaignSchedule(seed int64, clients, pairs int, mix []jobTemplate) [][]campaignOp {
	rng := rand.New(rand.NewSource(seed))
	used := make(map[int64]bool)
	out := make([][]campaignOp, clients)
	for c := range out {
		fresh := make([]campaign.Spec, 0, pairs)
		for i := range pairs {
			t := freshCycle[(i+c*clientOffset)%len(freshCycle)]
			sp := mix[t](rng, freshSeed(rng, used))
			fresh = append(fresh, sp)
			out[c] = append(out[c], campaignOp{spec: sp},
				campaignOp{spec: fresh[rng.Intn(len(fresh))], repeat: true})
		}
	}
	return out
}
