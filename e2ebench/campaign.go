package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/campaign"
)

const (
	// campaignClients is the number of closed-loop clients, one per core
	// of the machine the benchmark is sized for.
	campaignClients = 2
	// pollInterval is the Wait poll period. It sets the resolution of
	// every miss latency: a fifteenth or less of a fault simulation's,
	// where the median of the executed jobs falls. A shorter one would spend more
	// of the cores the jobs run on answering status polls.
	pollInterval = 2 * time.Millisecond
	// pairsPerSecond sizes a client's schedule to the run: every
	// freshCycle holds six ATPG runs of over 100 ms each, so a client
	// finishes fewer than this many op pairs a second.
	pairsPerSecond = 64
	// campaignSetups is how often a run repeats its set-up.
	campaignSetups = 31
)

// campaignEnv is a started campaign server with empty caches, listening
// on loopback, and the client that talks to it.
type campaignEnv struct {
	dir    string
	srv    *campaign.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *campaign.Client
}

// startCampaign starts a server the way reprod -cache-dir does: local
// parallelism 2, an in-memory cache backed by a disk cache in a fresh
// directory.
func startCampaign(tmp string) (*campaignEnv, error) {
	dir, err := os.MkdirTemp(tmp, "e2ebench-cache-")
	if err != nil {
		return nil, err
	}
	cache, err := campaign.NewCache(0, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := campaign.NewServer(campaign.ServerConfig{Cache: cache, Parallel: 2})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e := &campaignEnv{dir: dir, srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		tr: &http.Transport{MaxIdleConnsPerHost: campaignClients}}
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &campaign.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: e.tr}}
	// The first op can be issued once the server answers.
	if _, err := e.client.Stats(context.Background()); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the server, waits for it and removes its disk cache.
func (e *campaignEnv) close() {
	e.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // Serve's return below is what is waited for
	<-e.served
	e.srv.Close()
	os.RemoveAll(e.dir)
}

// campaignRecord is one completed submission.
type campaignRecord struct {
	id                   int
	op                   campaignOp
	done                 time.Duration // completion, from the start of the loop
	latency              time.Duration
	submit, wait, result time.Duration
	cached               bool
	out                  []byte
	err                  error
}

// loopCampaign runs every client's closed loop until dur has passed,
// stopping at the first pair boundary after it so that each client has
// run as many repeats as fresh jobs (or, with limits, for exactly
// limits[c] ops per client), and returns the records in client order.
func loopCampaign(env *campaignEnv, sched [][]campaignOp, dur time.Duration, limits []int, tr *tracer) ([]campaignRecord, time.Duration) {
	start := time.Now()
	recs := make([][]campaignRecord, len(sched))
	var wg sync.WaitGroup
	for c := range sched {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, op := range sched[c] {
				if limits != nil && i == limits[c] || limits == nil && i%2 == 0 && time.Since(start) >= dur {
					return
				}
				rec := submit(env.client, opID(c, i), op, tr)
				rec.done = time.Since(start)
				recs[c] = append(recs[c], rec)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var out []campaignRecord
	for _, r := range recs {
		out = append(out, r...)
	}
	return out, wall
}

// opID numbers op i of client c uniquely within a run; clientOf inverts
// it.
func opID(c, i int) int { return c<<20 | i }

func clientOf(id int) int { return id >> 20 }

// submit runs one op: Submit, Wait, Result.
func submit(cl *campaign.Client, id int, op campaignOp, tr *tracer) campaignRecord {
	ctx := context.Background()
	rec := campaignRecord{id: id, op: op}
	root := tr.begin(id, -1, "campaign.op")
	defer tr.end(root)
	step := func(name string, d *time.Duration, fn func() error) error {
		sp := tr.begin(id, root, name)
		t0 := time.Now()
		err := fn()
		*d = time.Since(t0)
		tr.end(sp)
		return err
	}
	t0 := time.Now()
	var st *campaign.JobStatus
	rec.err = step("campaign.Submit", &rec.submit, func() (err error) {
		st, err = cl.Submit(ctx, op.spec)
		return err
	})
	if rec.err != nil {
		return rec
	}
	rec.cached = st.Cached
	id0 := st.ID
	rec.err = step("campaign.Wait", &rec.wait, func() (err error) {
		st, err = cl.Wait(ctx, id0, pollInterval)
		return err
	})
	if rec.err == nil && st.State != "done" {
		rec.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if rec.err != nil {
		return rec
	}
	rec.err = step("campaign.Result", &rec.result, func() (err error) {
		rec.out, err = cl.Result(ctx, id0)
		return err
	})
	rec.latency = time.Since(t0)
	return rec
}

// runCampaign runs the campaign-service workload.
func runCampaign(rc runConfig) (*result, error) {
	var env *campaignEnv
	var sched [][]campaignOp
	setup, err := medianSetup(campaignSetups, func() (func(), error) {
		mix, err := campaignMix()
		if err != nil {
			return nil, err
		}
		sched = campaignSchedule(rc.seed, campaignClients, pairsPerSecond*int(rc.dur/time.Second), mix)
		if env, err = startCampaign(rc.tmp); err != nil {
			return nil, err
		}
		return env.close, nil
	})
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	sampler := startRSS()
	recs, wall := loopCampaign(env, sched, rc.dur, nil, tr)
	rss := sampler.finish()
	stats, err := env.client.Stats(context.Background())
	env.close()
	if err != nil {
		return nil, err
	}
	runs := []campaignRun{{recs: recs, stats: stats}}

	var plain []campaignRecord
	var plainWall time.Duration
	var execS time.Duration
	var execs []campaignRecord
	if rc.trace {
		// The same ops per client again, untraced, on a fresh server.
		limits := make([]int, campaignClients)
		for _, r := range recs {
			limits[clientOf(r.id)]++
		}
		penv, err := startCampaign(rc.tmp)
		if err != nil {
			return nil, err
		}
		plain, plainWall = loopCampaign(penv, sched, 0, limits, nil)
		pstats, err := penv.client.Stats(context.Background())
		penv.close()
		if err != nil {
			return nil, err
		}
		runs = append(runs, campaignRun{recs: plain, stats: pstats})
		// Every executed job once more in process: wait − exec is the
		// service's own share of a miss.
		for _, r := range recs {
			if r.op.repeat {
				continue
			}
			t0 := time.Now()
			out, err := execTraced(tr, r.id, r.op.spec)
			execS += time.Since(t0)
			execs = append(execs, campaignRecord{id: r.id, op: r.op, out: out, err: err})
		}
	}

	failed, countsOK := verifyCampaign(runs, execs)
	res := &result{Correct: len(failed) == 0 && countsOK, Attempted: len(recs), Failed: len(failed)}
	if !rc.trace {
		// latency_p50_s is the median of the executed jobs. Over all ops
		// it would sit where the fast half (cache hits) meets the slow
		// half and read the hits' tail, which moves by half between
		// runs; the hits' own median is the traced run's
		// hit_latency_p50_s.
		var lat []float64
		for _, r := range recs {
			if !r.op.repeat {
				lat = append(lat, r.latency.Seconds())
			}
		}
		// Throughput counts the ops completed inside the timed window, so
		// the clients' last ops, which end at different times, do not
		// stretch it.
		inWindow := 0
		for _, r := range recs {
			if r.done <= rc.dur && !failed[r.id] {
				inWindow++
			}
		}
		res.Metrics = endToEnd(setup, inWindow, rc.dur, lat, rss)
		return res, nil
	}
	in := layerInputs{ops: len(recs), attempted: len(recs), failed: len(failed),
		overhead:  overheadPct(float64(len(recs))/wall.Seconds(), float64(len(plain))/plainWall.Seconds()),
		cacheHits: float64(stats.Cache.Hits), cacheMiss: float64(stats.Cache.Misses), execMissS: execS}
	in.spans, in.counts = tr.snapshot()
	var hit, miss, all []float64
	for _, r := range plain {
		all = append(all, r.latency.Seconds())
		if r.op.repeat {
			hit = append(hit, r.latency.Seconds())
		} else {
			miss = append(miss, r.latency.Seconds())
		}
	}
	in.latP90, in.hitP50, in.missP50 = quantile(all, 0.9), quantile(hit, 0.5), quantile(miss, 0.5)
	for _, r := range recs {
		in.submitS += r.submit
		in.resultS += r.result
		if !r.op.repeat {
			in.misses++
			in.waitMissS += r.wait
		}
	}
	res.Metrics = perLayer(in)
	return res, nil
}

// campaignRun is one server's records and its final counters.
type campaignRun struct {
	recs  []campaignRecord
	stats *campaign.Stats
}

// specRef is the untimed reference for one distinct spec.
type specRef struct {
	spec campaign.Spec
	key  campaign.Key
	out  []byte
	err  error
}

// verifyCampaign checks every record: the report bytes equal the
// reference configuration's canonical report for the same spec, decode,
// carry the spec's job key, and came from cache exactly when the op was
// a repeat; and each server counted exactly one cache hit per repeat.
// It returns the ids of the failed ops and whether the hit counts held.
func verifyCampaign(runs []campaignRun, execs []campaignRecord) (map[int]bool, bool) {
	refs := map[campaign.Spec]*specRef{}
	var order []*specRef
	for _, run := range runs {
		for _, r := range run.recs {
			if refs[r.op.spec] == nil {
				refs[r.op.spec] = &specRef{spec: r.op.spec}
				order = append(order, refs[r.op.spec])
			}
		}
	}
	parallel(len(order), func(i int) {
		ref := order[i]
		if ref.key, ref.err = campaign.JobKey(ref.spec); ref.err != nil {
			return
		}
		rep, err := campaign.Execute(ref.spec, &campaign.ExecConfig{Options: jobReference(ref.spec)})
		if err != nil {
			ref.err = fmt.Errorf("reference: %w", err)
			return
		}
		ref.out, ref.err = rep.Encode()
	})
	check := func(r campaignRecord, fromServer bool) error {
		if r.err != nil {
			return r.err
		}
		ref := refs[r.op.spec]
		if ref.err != nil {
			return ref.err
		}
		if err := sameOutput(r.out, ref.out); err != nil {
			return err
		}
		rep, err := campaign.DecodeReport(r.out)
		if err != nil {
			return err
		}
		if rep.Key != ref.key {
			return fmt.Errorf("report key %s, campaign.JobKey gives %s", rep.Key, ref.key)
		}
		if fromServer && r.cached != r.op.repeat {
			return fmt.Errorf("served from cache: %v, but the op is a repeat: %v", r.cached, r.op.repeat)
		}
		return nil
	}
	failedOps := map[int]bool{}
	countsOK := true
	for i, run := range runs {
		repeats := 0
		for _, r := range run.recs {
			if r.op.repeat {
				repeats++
			}
			if err := check(r, true); err != nil {
				failedOps[r.id] = true
				fmt.Fprintf(os.Stderr, "e2ebench: server run %d op %d (%s %s seed %d): %v\n",
					i, r.id, r.op.spec.Kind, r.op.spec.Circuit, r.op.spec.Seed, err)
			}
		}
		if got := run.stats.Cache.Hits; got != uint64(repeats) {
			countsOK = false
			fmt.Fprintf(os.Stderr, "e2ebench: server run %d counted %d cache hits for %d repeats\n", i, got, repeats)
		}
	}
	for _, r := range execs {
		if err := check(r, false); err != nil {
			failedOps[r.id] = true
			fmt.Fprintf(os.Stderr, "e2ebench: in-process op %d: %v\n", r.id, err)
		}
	}
	return failedOps, countsOK
}
