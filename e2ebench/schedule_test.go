package main

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
)

func TestFlowScheduleIsSeeded(t *testing.T) {
	for _, wl := range []string{"paper-tables", "atpg-topoff"} {
		a, err := flowSchedule(wl, 7, 20)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := flowSchedule(wl, 7, 20)
		c, _ := flowSchedule(wl, 8, 20)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different schedules", wl)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", wl)
		}
		rot, _ := flowRotation(wl, 7)
		seeds := map[int64]bool{}
		for i, op := range a {
			if op.circuit != rot[i%len(rot)] {
				t.Errorf("%s: op %d runs %s, rotation says %s", wl, i, op.circuit, rot[i%len(rot)])
			}
			if seeds[op.seed] {
				t.Errorf("%s: op %d reuses seed %d", wl, i, op.seed)
			}
			seeds[op.seed] = true
		}
	}
}

func TestCampaignScheduleRepeatsOnlyCompletedKeys(t *testing.T) {
	mix, err := campaignMix()
	if err != nil {
		t.Fatal(err)
	}
	pairs := 2 * len(freshCycle)
	a := campaignSchedule(3, campaignClients, pairs, mix)
	if b := campaignSchedule(3, campaignClients, pairs, mix); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := campaignSchedule(4, campaignClients, pairs, mix); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 3 and 4 gave the same schedule")
	}
	freshSeeds := map[int64]bool{}
	for c, ops := range a {
		if len(ops) != 2*pairs {
			t.Fatalf("client %d: %d ops for %d pairs", c, len(ops), pairs)
		}
		done := map[campaign.Spec]bool{}
		kinds := map[campaign.Kind]int{}
		for i, op := range ops {
			if op.repeat != (i%2 == 1) {
				t.Fatalf("client %d op %d: repeat %v, want every second op a repeat", c, i, op.repeat)
			}
			if op.repeat {
				// The client is a closed loop: every earlier op of its
				// own has completed when this one is issued.
				if !done[op.spec] {
					t.Fatalf("client %d op %d repeats a spec the client has not run", c, i)
				}
				continue
			}
			if freshSeeds[op.spec.Seed] {
				t.Fatalf("client %d op %d: fresh seed %d drawn twice", c, i, op.spec.Seed)
			}
			freshSeeds[op.spec.Seed] = true
			done[op.spec] = true
			kinds[op.spec.Kind]++
		}
		for _, k := range []campaign.Kind{campaign.FaultSim, campaign.MutationTG, campaign.ATPG} {
			if kinds[k] != pairs/3 {
				t.Errorf("client %d: %d fresh %s jobs in %d, want a third", c, kinds[k], k, pairs)
			}
		}
	}
}
