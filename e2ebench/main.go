// Command e2ebench is the repository's end-to-end benchmark. It drives
// the paper's flows and the campaign service through their public APIs,
// checks every operation's output against the reference engine
// configuration computed on the same input after the timed phase, and
// prints one JSON result line. BENCHMARK.json at the repository root
// describes the workloads and metrics; run it from the root with
//
//	sh e2ebench/run.sh --workload paper-tables --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same operations with a span around every layer call, then
// repeats them untraced, and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
)

// defaultEngines is what timed ops run with: every engine knob at zero,
// so the defaults a user gets are what is measured.
var defaultEngines = engine.Options{}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	tmp      string
}

func main() {
	var rc runConfig
	var seconds, trace int
	flag.StringVar(&rc.workload, "workload", "", "paper-tables, atpg-topoff or campaign-service")
	flag.Int64Var(&rc.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 15, "how long the timed phase issues operations")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&rc.tmp, "tmp", "", "directory for the campaign server's disk cache (default: system temp dir)")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	rc.dur = time.Duration(seconds) * time.Second
	rc.trace = trace == 1

	var res *result
	var err error
	switch rc.workload {
	case "paper-tables", "atpg-topoff":
		res, err = runFlow(rc)
	case "campaign-service":
		res, err = runCampaign(rc)
	default:
		err = fmt.Errorf("unknown workload %q", rc.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// medianSetup runs setup reps times and returns the median wall time.
// The last repetition's state is what the run uses; the undo function of
// every earlier one (nil when there is nothing to release) runs untimed
// before the next repetition starts. Each repetition starts from a
// collected heap, so a collection the previous one left due does not
// land in its time.
func medianSetup(reps int, setup func() (undo func(), err error)) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := range reps {
		runtime.GC()
		t0 := time.Now()
		undo, err := setup()
		if err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		if undo != nil && i < reps-1 {
			undo()
		}
	}
	// The repetitions leave garbage the process would otherwise still
	// hold, decaying, while the first seconds of the timed phase sample
	// its resident set.
	debug.FreeOSMemory()
	return quantile(ds, 0.5), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// parallel runs fn(0..n-1) on two goroutines, one per core of the
// machine the benchmark is sized for, and returns when all are done.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
}

// endToEnd builds the --trace 0 metrics.
func endToEnd(setup float64, ok int, wall time.Duration, lat, rss []float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {setup, "s"},
		"ops_per_s":     {float64(ok) / wall.Seconds(), "ops/s"},
		"latency_p50_s": {quantile(lat, 0.5), "s"},
		"rss_p90_mb":    {quantile(rss, 0.9), "MB"},
	}
}

// layerInputs is what the per-layer metrics are computed from: the
// traced run's spans and counters plus the workload's own figures.
type layerInputs struct {
	spans     []span
	counts    map[string]float64
	ops       int // ops of the traced phase
	misses    int // campaign: executed (not cached) ops of the traced phase
	attempted int
	failed    int
	overhead  float64
	cacheHits float64
	cacheMiss float64
	latP90    float64
	hitP50    float64
	missP50   float64
	waitMissS time.Duration // campaign: summed Wait time of misses
	submitS   time.Duration
	resultS   time.Duration
	execMissS time.Duration // campaign: summed in-process Execute time
}

// perLayer builds the --trace 1 metrics. Times and counts are per op of
// the traced phase unless the name says otherwise.
func perLayer(in layerInputs) map[string]metric {
	lt := sumByName(in.spans)
	per := func(d time.Duration) float64 {
		if in.ops == 0 {
			return 0
		}
		return d.Seconds() / float64(in.ops)
	}
	perN := func(name string) float64 {
		if in.ops == 0 {
			return 0
		}
		return in.counts[name] / float64(in.ops)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perMiss := func(d time.Duration) float64 {
		if in.misses == 0 {
			return 0
		}
		return d.Seconds() / float64(in.misses)
	}
	fsBusy := lt.selfOf("faultsim.")
	atpgGen := lt.selfOf("atpg.Generate")
	return map[string]metric{
		"synth.busy_s":    {per(lt.selfOf("synth.")), "s/op"},
		"mutation.busy_s": {per(lt.selfOf("mutation.")), "s/op"},
		"core.newflow_s":  {per(lt.total["core.NewFlow"]), "s/op"},
		"tpg.session_s":   {per(lt.selfOf("tpg.NewSession")), "s/op"},
		"atpg.model_s":    {per(lt.selfOf("atpg.NewModel")), "s/op"},

		"tpg.generate_s":     {per(lt.selfOf("tpg.Generate")), "s/op"},
		"tpg.generate_calls": {perN("tpg.generate_calls"), "count/op"},
		"tpg.seq_cycles":     {perN("tpg.seq_cycles"), "cycles/op"},
		"tpg.kill_ratio":     {ratio(in.counts["tpg.killed"], in.counts["tpg.targets"]), "ratio"},

		"mutscore.busy_s":        {per(lt.selfOf("mutscore.")), "s/op"},
		"mutscore.mutant_cycles": {perN("mutscore.mutant_cycles"), "cycles/op"},

		"faultsim.busy_s":             {per(fsBusy), "s/op"},
		"faultsim.fault_cycles":       {perN("faultsim.fault_cycles"), "cycles/op"},
		"faultsim.fault_cycles_per_s": {ratio(in.counts["faultsim.fault_cycles"], fsBusy.Seconds()), "cycles/s"},

		"atpg.generate_s":       {per(atpgGen), "s/op"},
		"atpg.targets":          {perN("atpg.targets"), "count/op"},
		"atpg.podem_calls":      {perN("atpg.podem_calls"), "count/op"},
		"atpg.backtracks":       {perN("atpg.backtracks"), "count/op"},
		"atpg.aborted":          {perN("atpg.aborted"), "count/op"},
		"atpg.redundant":        {perN("atpg.redundant"), "count/op"},
		"atpg.tests_per_call":   {ratio(in.counts["atpg.tests"], in.counts["atpg.podem_calls"]), "ratio"},
		"atpg.backtracks_per_s": {ratio(in.counts["atpg.backtracks"], atpgGen.Seconds()), "1/s"},

		"campaign.submit_s":     {per(in.submitS), "s/op"},
		"campaign.wait_s":       {perMiss(in.waitMissS), "s/miss"},
		"campaign.result_s":     {per(in.resultS), "s/op"},
		"campaign.exec_s":       {perMiss(in.execMissS), "s/miss"},
		"campaign.cache_hits":   {in.cacheHits, "count"},
		"campaign.cache_misses": {in.cacheMiss, "count"},
		"campaign.hit_ratio":    {ratio(in.cacheHits, in.cacheHits+in.cacheMiss), "ratio"},

		"latency_p90_s":      {in.latP90, "s"},
		"hit_latency_p50_s":  {in.hitP50, "s"},
		"miss_latency_p50_s": {in.missP50, "s"},
		"error_rate":         {ratio(float64(in.failed), float64(in.attempted)), "fraction"},
		"trace.overhead_pct": {in.overhead, "%"},
	}
}

// rssPeriod is how often the resident set is sampled while ops run.
const rssPeriod = 10 * time.Millisecond

// rssSampler samples the process's resident set while the timed phase
// runs. The benchmark reports the 90th percentile of the samples rather
// than the high-water mark (VmHWM): on the campaign workload the
// high-water mark is set by a single allocation spike, often during
// set-up, and spread by a third from run to run, where the percentile
// held within a few percent.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := float64(os.Getpagesize())
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				if f := strings.Fields(string(b)); len(f) > 1 {
					if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
						s.samples = append(s.samples, pages*page/(1<<20))
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples in MB.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}
