package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mptcp/internal/learn"
	"mptcp/internal/netsim"
	"mptcp/internal/sim"
)

// minEpisodes is the fewest episodes an untraced run measures, however
// short --seconds is, so every median has at least three samples.
const minEpisodes = 3

// simSpec describes one simulated workload. An episode is one set of
// worlds built from the episode seed MixSeed(seed, i) and run to their
// horizon and drain.
type simSpec struct {
	name  string
	build func(seed int64, tr *tracer) []*cell
	// oneShard, when set, builds the same worlds on one shard: the
	// traced pass uses it, so spans nest on one goroutine, and an
	// untraced pass on it gives the shard speedup.
	oneShard func(seed int64, tr *tracer) []*cell
	// tracedEpisodes is how many episodes the traced run measures: a
	// fixed count, so its work counters repeat exactly for a seed.
	tracedEpisodes int
	// mptcpnet adds the loopback passes to the traced run, so the
	// mptcpnet layer is measured by a workload the benchmark lists.
	mptcpnet bool
	// open marks a workload whose untraced run is minEpisodes episodes,
	// each extending its horizon for an equal share of the measuring
	// budget.
	open bool
}

// setupReps is how many extra worlds an untraced run builds, and never
// runs, so that set-up time has a median even when one episode fills
// the run.
const setupReps = 40

func runDCBulk(seed int64, seconds float64, trace bool) (result, info, error) {
	return runSim(simSpec{name: "dc-bulk", build: buildDCBulk, tracedEpisodes: 2, open: true}, seed, seconds, trace)
}

func runAppMix(seed int64, seconds float64, trace bool) (result, info, error) {
	return runSim(simSpec{name: "app-mix", build: buildAppMix, tracedEpisodes: 2, mptcpnet: true}, seed, seconds, trace)
}

func runFleet(seed int64, seconds float64, trace bool) (result, info, error) {
	return runSim(simSpec{
		name:           "fleet-sharded",
		build:          func(s int64, tr *tracer) []*cell { return buildFleet(s, tr, fleetShards) },
		oneShard:       func(s int64, tr *tracer) []*cell { return buildFleet(s, tr, 1) },
		tracedEpisodes: 2,
	}, seed, seconds, trace)
}

func (sp simSpec) episode(seed int64, i int, build func(int64, *tracer) []*cell, tr *tracer, memstats bool, budget time.Duration) (epResult, error) {
	r, err := runEpisode(func(tr *tracer) []*cell { return build(sim.MixSeed(seed, i), tr) }, tr, memstats, budget)
	if err != nil {
		err = fmt.Errorf("episode %d: %w", i, err)
	}
	for _, n := range r.drainNotes {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d episode %d: %s\n", sp.name, seed, i, n)
	}
	return r, err
}

func runSim(sp simSpec, seed int64, seconds float64, trace bool) (result, info, error) {
	if trace {
		return traceSim(sp, seed)
	}
	var setup, pps, fps, heap, small []float64
	var unfinished int64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		d := timedBuild(func() { sp.build(sim.MixSeed(seed, 0), nil) })
		setup = append(setup, d.Seconds())
	}
	budget := time.Duration(seconds * float64(time.Second))
	if sp.open {
		budget /= minEpisodes
	}
	start := time.Now()
	var eps []epResult
	for i := 0; len(eps) < minEpisodes || (!sp.open && since(start) < seconds); i++ {
		r, err := sp.episode(seed, i, sp.build, nil, false, budget)
		if err != nil {
			return result{}, info{}, err
		}
		eps = append(eps, r)
	}
	res := result{}
	for _, e := range eps {
		setup = append(setup, e.setup.Seconds())
		for _, w := range e.windows {
			pps = append(pps, float64(w.pkts)/w.busy.Seconds())
			fps = append(fps, float64(w.flows)/w.busy.Seconds())
		}
		heap = append(heap, e.peakHeap/1e6)
		small = append(small, e.small...)
		res.Attempted += e.attempted
		res.Failed += e.failed
		unfinished += e.unfinished
	}
	p99, pct := tail(small)
	res.Metrics = map[string]metric{
		"setup_s":           {median(setup), "s"},
		"sim_pkts_per_s":    {median(pps), "1/s"},
		"sim_flows_per_s":   {median(fps), "1/s"},
		"goodput_MBps":      {median(pps) * netsim.DataPacketSize / 1e6, "MB/s"},
		"small_xfer_p50_ms": {median(small), "ms"},
		"small_xfer_p99_ms": {p99, "ms"},
		"peak_heap_MB":      {median(heap), "MB"},
	}
	inf := info{
		Digest: fmt.Sprintf("%x", eps[0].digest),
		Notes: map[string]float64{
			"episodes": float64(len(eps)), "windows": float64(len(pps)),
			"small_xfer_n": float64(len(small)), "small_xfer_tail_pct": pct,
			"unfinished": float64(unfinished),
		},
	}
	return res, inf, nil
}

// traceSim is the traced run. It measures tracedEpisodes episodes
// untraced (the reference for timing, allocation and GC numbers), the
// same episodes traced (the per-layer split; their digests must equal
// the reference's, or a wrapper changed behaviour), and the micro
// rungs.
func traceSim(sp simSpec, seed int64) (result, info, error) {
	modelMs := modelLoadMs()
	tracedBuild := sp.build
	if sp.oneShard != nil {
		tracedBuild = sp.oneShard
	}
	var ref, base, trc []epResult
	for i := 0; i < sp.tracedEpisodes; i++ {
		r, err := sp.episode(seed, i, sp.build, nil, true, 0)
		if err != nil {
			return result{}, info{}, err
		}
		ref = append(ref, r)
	}
	base = ref
	speedup := 0.0
	if sp.oneShard != nil {
		base = nil
		for i := 0; i < sp.tracedEpisodes; i++ {
			r, err := sp.episode(seed, i, sp.oneShard, nil, false, 0)
			if err != nil {
				return result{}, info{}, err
			}
			if r.digest != ref[i].digest {
				return result{}, info{}, fmt.Errorf("episode %d: digest at 1 shard %x != at %d shards %x", i, r.digest, fleetShards, ref[i].digest)
			}
			base = append(base, r)
		}
		speedup = sumRun(base) / sumRun(ref)
	}
	tr := newTracer()
	for i := 0; i < sp.tracedEpisodes; i++ {
		tr.run = int64(i)
		r, err := sp.episode(seed, i, tracedBuild, tr, false, 0)
		if err != nil {
			return result{}, info{}, err
		}
		if r.digest != ref[i].digest {
			return result{}, info{}, fmt.Errorf("episode %d: traced digest %x != untraced %x: a wrapper changed behaviour", i, r.digest, ref[i].digest)
		}
		trc = append(trc, r)
	}
	if err := tr.flush(filepath.Join(outDir(), fmt.Sprintf("spans-%s-%d.jsonl", sp.name, seed))); err != nil {
		return result{}, info{}, err
	}

	var t epResult // totals over the reference episodes
	for _, e := range ref {
		t.steps += e.steps
		t.pktsAll += e.pktsAll
		t.hops += e.hops
		t.drops += e.drops
		t.pipeMsgs += e.pipeMsgs
		t.attempted += e.attempted
		t.failed += e.failed
		t.flowsAll += e.flowsAll
		t.ctr.merge(e.ctr)
		t.mallocs += e.mallocs
		t.gcCycles += e.gcCycles
		t.gcPauseNs += e.gcPauseNs
		t.depthSum += e.depthSum
		t.depthN += e.depthN
		if e.depthMax > t.depthMax {
			t.depthMax = e.depthMax
		}
	}
	runNs := sumRun(ref) * 1e9
	tracedRun := tr.agg[kRun].dur
	pkts := float64(t.pktsAll)
	ccSelf := tr.self(kIncrease) + tr.self(kDecrease) + tr.self(kRTTObs) + tr.self(kLossObs)
	m := perLayer()
	set := func(name string, v float64) { m.set(name, v) }
	set("sim.events", float64(t.steps))
	set("sim.ns_per_event", runNs/float64(t.steps))
	set("sim.events_per_pkt", float64(t.steps)/pkts)
	set("sim.heap_depth_max", float64(t.depthMax))
	set("sim.heap_depth_mean", t.depthSum/float64(t.depthN))
	set("shard.speedup_2v1", speedup)
	set("shard.pipe_msgs", float64(t.pipeMsgs))
	set("netsim.hops", float64(t.hops))
	set("netsim.drop_frac", ratio(float64(t.drops), float64(t.hops)))
	set("transport.retx_frac", ratio(float64(t.ctr.retx), float64(t.ctr.sent)))
	set("transport.rtos", float64(t.ctr.rtos))
	set("transport.fast_retx", float64(t.ctr.fastRetx))
	set("transport.opp_retx", float64(t.ctr.oppRetx))
	set("transport.penalties", float64(t.ctr.penalties))
	set("transport.conn_get_us", tr.meanNs(kConnGet)/1e3)
	set("transport.self_ns_per_pkt", tr.self(kRun)/pkts)
	set("transport.allocs_per_pkt", float64(t.mallocs)/pkts)
	set("cc.increase_calls", float64(tr.agg[kIncrease].calls))
	set("cc.increase_ns", tr.meanNs(kIncrease))
	set("cc.decrease_calls", float64(tr.agg[kDecrease].calls))
	set("cc.share", ccSelf/tracedRun)
	set("sched.picks", float64(tr.agg[kPick].calls))
	set("sched.pick_ns", tr.meanNs(kPick))
	set("sched.pick_none_frac", ratio(float64(tr.nones), float64(tr.agg[kPick].calls)))
	set("sched.share", tr.self(kPick)/tracedRun)
	set("workload.issued", float64(t.attempted))
	set("workload.completed", float64(t.flowsAll))
	set("workload.spawn_us", tr.meanNs(kSpawn)/1e3)
	set("workload.share", (tr.self(kSpawn)+tr.self(kDone))/tracedRun)
	set("topo.build_ms", tr.meanNs(kTopo)/1e6)
	set("learn.model_load_ms", modelMs)
	set("proc.gc_cycles", float64(t.gcCycles))
	set("proc.gc_pause_ms", float64(t.gcPauseNs)/1e6)
	set("trace.overhead_frac", sumRun(trc)/sumRun(base)-1)
	set("trace.span_floor_ns", tr.floor)
	res := result{Attempted: t.attempted, Failed: t.failed}
	if sp.mptcpnet {
		lb, err := loopbackLayer(seed, m)
		if err != nil {
			return result{}, info{}, err
		}
		res.Attempted += lb.attempted
		res.Failed += lb.failed
	}
	runRungs(m)
	res.Metrics = m.out()
	return res, info{Digest: fmt.Sprintf("%x", ref[0].digest)}, nil
}

func sumRun(eps []epResult) float64 {
	var s float64
	for _, e := range eps {
		s += e.run.Seconds()
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// modelLoadMs times parsing the embedded bandit model: the load the
// first sched.New("bandit") of a process pays (the registry does it at
// package init, so the benchmark repeats the parse to time it).
func modelLoadMs() float64 {
	var xs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := learn.Parse(learn.EmbeddedBytes()); err != nil {
			panic(err) // the embedded model is checked by internal/learn's tests
		}
		xs = append(xs, float64(time.Since(t0))/1e6)
	}
	return median(xs)
}

// outDir is where runs leave their span files: inside the checkout's
// build directory, which git ignores.
func outDir() string { return filepath.Join(".bench_build", "perfbench") }
