package main

import (
	"math/rand"
	"runtime"
	"time"

	"mptcp/internal/cc"
	"mptcp/internal/core"
	"mptcp/internal/netsim"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
)

// layerUnits lists every per-layer metric with its unit. Every traced
// run prints all of them; a layer a workload never enters reads 0.
var layerUnits = [][2]string{
	{"sim.events", "count"}, {"sim.ns_per_event", "ns"}, {"sim.events_per_pkt", "count"},
	{"sim.heap_depth_max", "count"}, {"sim.heap_depth_mean", "count"},
	{"sim.post_pop_ns.d64", "ns"}, {"sim.post_pop_ns.d16k", "ns"}, {"sim.timer_reset_ns", "ns"},
	{"shard.speedup_2v1", "x"}, {"shard.pipe_msgs", "count"},
	{"netsim.hops", "count"}, {"netsim.drop_frac", "frac"}, {"netsim.hop_ns", "ns"}, {"netsim.allocs_per_hop", "count"},
	{"transport.retx_frac", "frac"}, {"transport.rtos", "count"}, {"transport.fast_retx", "count"},
	{"transport.opp_retx", "count"}, {"transport.penalties", "count"}, {"transport.conn_get_us", "us"},
	{"transport.self_ns_per_pkt", "ns"}, {"transport.allocs_per_pkt", "count"},
	{"cc.increase_calls", "count"}, {"cc.increase_ns", "ns"}, {"cc.decrease_calls", "count"}, {"cc.share", "frac"},
	{"cc.increase_ns_micro.mptcp.8sf", "ns"}, {"cc.increase_ns_micro.olia.8sf", "ns"},
	{"sched.picks", "count"}, {"sched.pick_ns", "ns"}, {"sched.pick_none_frac", "frac"}, {"sched.share", "frac"},
	{"sched.pick_ns_micro.firstfit", "ns"}, {"sched.pick_ns_micro.minrtt", "ns"},
	{"sched.pick_ns_micro.blest", "ns"}, {"sched.pick_ns_micro.bandit", "ns"},
	{"workload.issued", "count"}, {"workload.completed", "count"}, {"workload.spawn_us", "us"}, {"workload.share", "frac"},
	{"topo.build_ms", "ms"}, {"learn.model_load_ms", "ms"},
	{"mptcpnet.segs_sent", "count"}, {"mptcpnet.retx_frac", "frac"}, {"mptcpnet.reinjects", "count"},
	{"mptcpnet.dup_data", "count"}, {"mptcpnet.overflow", "count"}, {"mptcpnet.stalls", "count"},
	{"mptcpnet.stall_probes", "count"}, {"mptcpnet.cpu_us_per_KB", "us/KB"}, {"mptcpnet.write_wait_frac", "frac"},
	{"mptcpnet.goroutines_max", "count"},
	{"proc.gc_cycles", "count"}, {"proc.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "frac"}, {"trace.span_floor_ns", "ns"},
}

type layerMetrics map[string]float64

func perLayer() layerMetrics {
	m := layerMetrics{}
	for _, nu := range layerUnits {
		m[nu[0]] = 0
	}
	return m
}

func (m layerMetrics) set(name string, v float64) {
	if _, ok := m[name]; !ok {
		panic("perfbench: unlisted per-layer metric " + name)
	}
	m[name] = v
}

func (m layerMetrics) out() map[string]metric {
	out := map[string]metric{}
	for _, nu := range layerUnits {
		out[nu[0]] = metric{m[nu[0]], nu[1]}
	}
	return out
}

// --- micro rungs -----------------------------------------------------
//
// Each rung isolates one layer's per-unit cost on a fixed synthetic
// input, so a change to that layer shows here even when the workloads
// dilute it. Every rung reports the median of rungReps timed passes.

const rungReps = 5

func medianOf(reps int, pass func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = pass()
	}
	return median(xs)
}

func runRungs(m layerMetrics) {
	m.set("sim.post_pop_ns.d64", medianOf(rungReps, func() float64 { return postPopNs(64, 1<<19) }))
	m.set("sim.post_pop_ns.d16k", medianOf(rungReps, func() float64 { return postPopNs(16384, 1<<19) }))
	m.set("sim.timer_reset_ns", medianOf(rungReps, func() float64 { return timerResetNs(1 << 20) }))
	var allocs float64
	m.set("netsim.hop_ns", medianOf(rungReps, func() float64 {
		ns, a := hopNs(1 << 19)
		allocs = a
		return ns
	}))
	m.set("netsim.allocs_per_hop", allocs)
	m.set("cc.increase_ns_micro.mptcp.8sf", medianOf(rungReps, func() float64 { return increaseNs("MPTCP", 1<<20) }))
	m.set("cc.increase_ns_micro.olia.8sf", medianOf(rungReps, func() float64 { return increaseNs("OLIA", 1<<20) }))
	for _, name := range []string{"firstfit", "minrtt", "blest", "bandit"} {
		m.set("sched.pick_ns_micro."+name, medianOf(rungReps, func() float64 { return pickNs(name, 1<<20) }))
	}
}

// churn reposts itself at a pseudo-random delay until n events ran,
// keeping the heap at its initial depth: each event is one Post plus
// one pop.
type churn struct {
	s      *sim.Simulator
	delays []sim.Time
	left   int
}

func (c *churn) OnEvent(any) {
	if c.left <= 0 {
		return
	}
	c.left--
	c.s.Post(c.s.Now()+c.delays[c.left&(len(c.delays)-1)], c, nil)
}

func postPopNs(depth, n int) float64 {
	s := sim.New(1)
	rng := rand.New(rand.NewSource(1))
	c := &churn{s: s, delays: make([]sim.Time, 4096), left: n}
	for i := range c.delays {
		c.delays[i] = sim.Time(1 + rng.Intn(2*depth))
	}
	for i := 0; i < depth; i++ {
		s.Post(c.delays[i&4095], c, nil)
	}
	t0 := time.Now()
	s.Run()
	return float64(time.Since(t0)) / float64(n+depth)
}

func timerResetNs(n int) float64 {
	s := sim.New(1)
	rng := rand.New(rand.NewSource(1))
	timers := make([]*sim.Timer, 64)
	for i := range timers {
		timers[i] = s.NewTimer(func() {})
		timers[i].Reset(sim.Time(1 + rng.Intn(1000)))
	}
	delays := make([]sim.Time, 1024)
	for i := range delays {
		delays[i] = sim.Time(1 + rng.Intn(1000))
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		timers[i&63].Reset(delays[i&1023])
	}
	return float64(time.Since(t0)) / float64(n)
}

// hopNs drives netsim's canonical BenchRing for about n packet hops and
// returns ns and heap allocations per hop.
func hopNs(n int) (float64, float64) {
	s := sim.New(1)
	netsim.NewBenchRing(s, 8, 512)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	steps0 := s.Steps()
	t0 := time.Now()
	// 512 packets circulate over links of 1 ms delay: 512k hops per
	// simulated second.
	s.RunUntil(s.Now() + sim.Time(float64(n)/512e3*float64(sim.Second)))
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	hops := float64(s.Steps() - steps0)
	return float64(d) / hops, float64(ms1.Mallocs-ms0.Mallocs) / hops
}

// increaseNs times the per-ACK congestion-avoidance increase over an
// 8-subflow connection whose windows move as the transport moves them.
func increaseNs(name string, n int) float64 {
	a, err := cc.New(name)
	if err != nil {
		panic(err)
	}
	subs := make([]core.Subflow, 8)
	reset := func(r int) {
		subs[r] = core.Subflow{Cwnd: float64(10 + 10*r), SSThresh: 1, SRTT: 0.01 * float64(1+r)}
	}
	for r := range subs {
		reset(r)
	}
	var sink float64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r := i & 7
		inc := a.Increase(subs, r)
		sink += inc
		if subs[r].Cwnd += inc; subs[r].Cwnd > 200 {
			reset(r)
		}
	}
	d := time.Since(t0)
	if sink < 0 {
		panic("negative increase")
	}
	return float64(d) / float64(n)
}

// pickNs times Pick over 1024 seeded WiFi+3G-shaped two-subflow slates
// under varied flow-control headroom.
func pickNs(name string, n int) float64 {
	s, err := sched.New(name)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(1))
	slates := make([][]sched.View, 1024)
	ctxs := make([]sched.Ctx, 1024)
	windows := []int64{1, 4, 16, 64, 1 << 20}
	for i := range slates {
		v := make([]sched.View, 2)
		for j := range v {
			cwnd := 1 + rng.Float64()*40
			v[j] = sched.View{
				Cwnd:     cwnd,
				Inflight: rng.Int63n(int64(cwnd) + 1),
				SRTT:     []float64{0.02, 0.3}[j] * (0.5 + rng.Float64()),
				Sendable: rng.Intn(8) != 0,
				Sent:     rng.Int63n(1000),
			}
		}
		slates[i] = v
		ctxs[i] = sched.Ctx{Window: windows[rng.Intn(len(windows))]}
	}
	sink := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += s.Pick(ctxs[i&1023], slates[i&1023])
	}
	d := time.Since(t0)
	if sink == 1<<62 {
		panic("unreachable")
	}
	return float64(d) / float64(n)
}
