package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/circuits"
	"repro/internal/core"
)

// cheapJobs are campaign specs of every kind that run in milliseconds.
func cheapJobs(seed int64) []campaign.Spec {
	return []campaign.Spec{
		{Kind: campaign.FaultSim, Circuit: "b03", Seed: seed, Horizon: 512, Window: 128},
		{Kind: campaign.FaultSim, Circuit: "c880", Seed: seed, Horizon: 2048},
		{Kind: campaign.MutationTG, Circuit: "b01", Seed: seed, Operator: "CR", MaxLen: 64},
		{Kind: campaign.ATPG, Circuit: "c432", Seed: seed, MaxBacktracks: 64},
	}
}

func TestCampaignCheckPassesAtTwoSeedsAndRejectsAFlippedByte(t *testing.T) {
	var recs [2][]campaignRecord
	for s, seed := range []int64{1, 2} {
		for i, sp := range cheapJobs(seed) {
			rep, err := campaign.Execute(sp, &campaign.ExecConfig{Options: defaultEngines})
			if err != nil {
				t.Fatal(err)
			}
			out, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			recs[s] = append(recs[s], campaignRecord{id: i, op: campaignOp{spec: sp}, out: out})
		}
		run := []campaignRun{{recs: recs[s], stats: &campaign.Stats{}}}
		if failed, ok := verifyCampaign(run, nil); len(failed) != 0 || !ok {
			t.Fatalf("seed %d: %d failed, counts ok %v", seed, len(failed), ok)
		}
	}
	// The reports differ between the seeds, so the check is tied to the
	// seed given: seed 1's reports are wrong answers for seed 2's specs.
	swapped := append([]campaignRecord(nil), recs[1]...)
	for i := range swapped {
		swapped[i].out = recs[0][i].out
	}
	if failed, _ := verifyCampaign([]campaignRun{{recs: swapped, stats: &campaign.Stats{}}}, nil); len(failed) != len(swapped) {
		t.Errorf("seed-1 reports accepted for seed-2 specs: %d of %d rejected", len(failed), len(swapped))
	}
	for i := range recs[1] {
		bad := append([]campaignRecord(nil), recs[1]...)
		out := bytes.Clone(bad[i].out)
		out[len(out)/2] ^= 1
		bad[i].out = out
		if failed, _ := verifyCampaign([]campaignRun{{recs: bad, stats: &campaign.Stats{}}}, nil); len(failed) != 1 {
			t.Errorf("job %d: a flipped byte gave %d failed ops, want 1", i, len(failed))
		}
	}
	// A repeat must come from cache, and the server must count it.
	rep := recs[1][0]
	rep.op.repeat = true
	if failed, _ := verifyCampaign([]campaignRun{{recs: []campaignRecord{rep}, stats: &campaign.Stats{}}}, nil); len(failed) != 1 {
		t.Error("a repeat the server executed again was accepted")
	}
	rep.cached = true
	if failed, ok := verifyCampaign([]campaignRun{{recs: []campaignRecord{rep}, stats: &campaign.Stats{}}}, nil); len(failed) != 0 || ok {
		t.Error("a repeat the server did not count as a cache hit was accepted")
	}
}

func TestFlowCheckPassesAtTwoSeedsAndRejectsAChangedDigit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the c499 paper-tables flow and its serial reference")
	}
	c := circuits.MustLoad("c499")
	for _, seed := range []int64{11, 12} {
		res, err := paperTables(c, seed, defaultEngines)
		if err != nil {
			t.Fatal(err)
		}
		rec := flowRecord{res: res}
		if err := verifyFlow("paper-tables", c, seed, paperTables, rec, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Change one digit of a Table 1 data row.
		lines := strings.Split(string(res.out), "\n")
		row := lines[2]
		i := strings.IndexAny(row[len(row)-6:], "0123456789") + len(row) - 6
		d := row[i] - '0'
		lines[2] = row[:i] + string(rune('0'+(d+1)%10)) + row[i+1:]
		bad := *res
		bad.out = []byte(strings.Join(lines, "\n"))
		if err := verifyFlow("paper-tables", c, seed, paperTables, flowRecord{res: &bad}, nil); err == nil {
			t.Fatalf("seed %d: a changed digit in %q passed the check", seed, row)
		}
	}
}

func TestTopoffCrossCheckRejectsAnInflatedClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the b06 sequential top-off flow and its serial reference")
	}
	c := circuits.MustLoad("b06")
	f, err := core.NewFlow(c, core.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.SequentialATPGTopoff(seqTopoffFrames)
	if err != nil {
		t.Fatal(err)
	}
	full, err := f.FullTG()
	if err != nil {
		t.Fatal(err)
	}
	res, err := topoffResult(c, f.Netlist, f.Faults, full.Seq, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyFlow("atpg-topoff", c, 5, topoff, flowRecord{res: res}, nil); err != nil {
		t.Fatal(err)
	}
	r.Baseline.Detected += len(f.Faults)
	if err := res.check(); err == nil {
		t.Fatal("a baseline claiming more detections than its tests make passed the cross-check")
	}
}
