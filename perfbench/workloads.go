package main

import (
	"fmt"

	"mptcp/internal/cc"
	"mptcp/internal/core"
	"mptcp/internal/netsim"
	"mptcp/internal/scenario"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/traffic"
	"mptcp/internal/transport"
	"mptcp/internal/workload"
)

// newAlg builds a fresh named algorithm, timed by tr.
func newAlg(name string, tr *tracer) core.Algorithm {
	a, err := cc.New(name)
	if err != nil {
		panic(err) // names below are compile-time constants
	}
	return wrapAlg(a, tr)
}

// --- dc-bulk ---------------------------------------------------------
//
// §4: permutation traffic (TP1) on the paper's k=8 FatTree, every host
// running one long-lived 8-subflow MPTCP flow with firstfit striping and
// an unbounded receive buffer. A light Poisson stream of short ECMP TCP
// probes between random hosts gives the workload completed transfers to
// time; it adds almost no scheduler or workload work.
const (
	dcK          = 8
	dcSubflows   = 8
	dcWarm       = 400 * sim.Millisecond // slow-start losses and their RTOs settle by then
	dcHorizon    = 700 * sim.Millisecond // the traced run's fixed horizon
	dcHorizonMax = 30 * sim.Second       // an untraced run extends its horizon up to this
	dcWindow     = 5                     // slices per measuring window
	dcSlice      = 5 * sim.Millisecond
	dcProbeEvery = 400 * sim.Microsecond // mean probe inter-arrival
	dcProbeMax   = smallPkts             // probe sizes are uniform in [4, dcProbeMax] packets
)

func buildDCBulk(seed int64, tr *tracer) []*cell {
	s := sim.New(seed)
	n := netsim.NewNet(s)
	tr.begin(kTopo)
	ft := topo.NewFatTree(topo.FatTreeConfig{K: dcK})
	tr.end()
	rng := s.Rand()
	c := &cell{name: "fattree", sims: []*sim.Simulator{s}, advance: s.RunUntil,
		slice: dcSlice, warm: dcWarm, horizon: dcHorizon, horizonMax: dcHorizonMax, window: dcWindow}
	ls := &linkSet{}
	for src, dst := range traffic.Permutation(rng, ft.NumHosts()) {
		paths := ft.Paths(rng, src, dst, dcSubflows)
		ls.add(paths...)
		conn := transport.NewConn(n, transport.Config{
			Alg:   newAlg("MPTCP", tr),
			Sched: wrapSched(sched.FirstFit{}, tr),
			Paths: paths,
		})
		s.At(sim.Time(rng.Int63n(int64(5*sim.Millisecond))), conn.Start)
		c.bulk = append(c.bulk, conn)
	}
	b := newBook(s, n, tr)
	b.warm = dcWarm
	c.books = []*book{b}
	var probe *sim.Timer
	probe = s.NewTimer(func() {
		if c.closed {
			return
		}
		src := rng.Intn(ft.NumHosts())
		dst := (src + 1 + rng.Intn(ft.NumHosts()-1)) % ft.NumHosts()
		p := ft.ECMPPath(rng, src, dst)
		ls.add(p)
		b.spawn(transport.Config{
			Alg:   newAlg("REGULAR", tr),
			Sched: wrapSched(sched.FirstFit{}, tr),
			Paths: []transport.Path{p},
		}, int64(4+rng.Intn(dcProbeMax-3)), nil)
		probe.Reset(sim.Time(rng.ExpFloat64() * float64(dcProbeEvery)))
	})
	probe.ResetAt(sim.Time(rng.ExpFloat64() * float64(dcProbeEvery)))
	c.links = ls
	return []*cell{c}
}

// --- app-mix ---------------------------------------------------------
//
// §5–§6: each of the four application workloads under each of three
// schedulers, one world per pair, on the WiFi+3G client under the
// handover script. Every transfer gets a fresh MPTCP connection from a
// ConnPool with a 16-packet shared receive buffer.
var appScheds = []string{"blest", "bandit", "minrtt+otr+pen"}

const (
	appHorizon = 10 * sim.Second
	appSlice   = 1 * sim.Second
	appRecvBuf = 16
)

func buildAppMix(seed int64, tr *tracer) []*cell {
	var cells []*cell
	for wi, wname := range workload.Names() {
		for si, spec := range appScheds {
			cells = append(cells, buildAppCell(sim.MixSeed(seed, wi*len(appScheds)+si), wname, spec, tr))
		}
	}
	return cells
}

func buildAppCell(seed int64, wname, spec string, tr *tracer) *cell {
	s := sim.New(seed)
	n := netsim.NewNet(s)
	tr.begin(kTopo)
	wl := topo.NewWireless(topo.WirelessConfig{})
	tr.end()
	paths := wl.Paths()
	b := newBook(s, n, tr)
	spawn := func(pkts int64, done func()) {
		sc, opts, err := sched.Parse(spec)
		if err != nil {
			panic(err) // specs above are constants
		}
		b.spawn(transport.Config{
			Alg:       newAlg("MPTCP", tr),
			Sched:     wrapSched(sc, tr),
			SchedOpts: opts,
			RecvBuf:   appRecvBuf,
			Paths:     paths,
		}, pkts, done)
	}
	scenario.MustBuild("handover", appHorizon).MustInstall(&scenario.Env{Sim: s, Net: n, Links: []*topo.Duplex{wl.WiFi, wl.G3}})
	st := workload.MustBuild(wname, appHorizon).Install(&workload.Env{Sim: s, Spawn: spawn, End: appHorizon})
	var ls linkSet
	ls.add(paths...)
	return &cell{
		name: wname + "/" + spec, sims: []*sim.Simulator{s}, advance: s.RunUntil,
		slice: appSlice, horizon: appHorizon,
		links: &ls, books: []*book{b}, stats: []*workload.Stats{st},
		check: workloadCheck(st, b),
	}
}

// --- fleet-sharded ---------------------------------------------------
//
// Scaled §3: fleetGroups dual-homed connection groups, one domain each
// on a sharded engine, with Poisson arrivals of Pareto(1.5)-sized
// two-path transfers. Each group sends periodic transit bursts into the
// next group's access queue over a Pipe, so the domains are coupled and
// the engine runs barrier epochs. Links use batched departures.
const (
	fleetGroups       = 8
	fleetHorizon      = 8 * sim.Second
	fleetSlice        = 100 * sim.Millisecond
	fleetRate         = 25.0 // arrivals per second per group
	fleetMeanPkts     = 40.0
	fleetRecvBuf      = 64
	fleetPipeLatency  = 50 * sim.Millisecond
	fleetTransitEvery = 20 * sim.Millisecond
	fleetShards       = 2
)

type fleetGroup struct {
	s       *sim.Simulator
	n       *netsim.Net
	bgRoute *netsim.Route
	out     *sim.Pipe
	next    *fleetGroup
	tick    *sim.Timer
	env     *scenario.Env
}

// OnEvent absorbs a transit burst of arg packets from the previous group.
func (g *fleetGroup) OnEvent(arg any) {
	for i := 0; i < arg.(int); i++ {
		p := g.n.AllocPacket()
		p.Size = netsim.DataPacketSize
		g.n.Send(g.bgRoute, p)
	}
}

// Receive drains transit packets at the far end of the access link.
func (g *fleetGroup) Receive(p *netsim.Packet) { g.n.FreePacket(p) }

func (g *fleetGroup) sendTransit() {
	g.out.Send(g.next, 1+g.s.Rand().Intn(8))
	if next := g.s.Now() + fleetTransitEvery; next < fleetHorizon {
		g.tick.ResetAt(next)
	}
}

func buildFleet(seed int64, tr *tracer, shards int) []*cell {
	sh := sim.NewSharded(seed, fleetGroups)
	sh.SetShards(shards)
	c := &cell{name: "fleet", advance: sh.Run, slice: fleetSlice, horizon: fleetHorizon}
	groups := make([]*fleetGroup, fleetGroups)
	var ls linkSet
	for i := range groups {
		s := sh.Domain(i)
		n := netsim.NewNet(s)
		n.BatchDepartures = true
		tr.begin(kTopo)
		d1 := topo.NewDuplex(fmt.Sprintf("g%d/acc1", i), 16, 10*sim.Millisecond, topo.BDPPackets(16, 20*sim.Millisecond))
		d2 := topo.NewDuplex(fmt.Sprintf("g%d/acc2", i), 8, 25*sim.Millisecond, topo.BDPPackets(8, 50*sim.Millisecond))
		tr.end()
		g := &fleetGroup{s: s, n: n}
		g.bgRoute = netsim.NewRoute(g, d1.AB)
		g.tick = s.NewTimer(g.sendTransit)
		paths := []transport.Path{topo.PathThrough(d1), topo.PathThrough(d2)}
		ls.add(paths...)
		b := newBook(s, n, tr)
		g.env = &scenario.Env{Sim: s, Net: n, Links: []*topo.Duplex{d1, d2}}
		g.env.Spawn = func(pkts int64) {
			b.spawn(transport.Config{
				Alg:     newAlg("MPTCP", tr),
				Sched:   wrapSched(sched.MinRTT{}, tr),
				Paths:   paths,
				RecvBuf: fleetRecvBuf,
			}, pkts, nil)
		}
		scenario.Scenario{Name: "fleet-churn", Directives: []scenario.Directive{
			scenario.FlowChurn{Start: 0, End: fleetHorizon, Rate: fleetRate, MeanPkts: fleetMeanPkts, Alpha: 1.5},
		}}.MustInstall(g.env)
		groups[i] = g
		c.sims = append(c.sims, s)
		c.books = append(c.books, b)
	}
	for i, g := range groups {
		g.out = sh.NewPipe(i, (i+1)%fleetGroups, fleetPipeLatency)
		g.next = groups[(i+1)%fleetGroups]
		g.tick.ResetAt(fleetTransitEvery)
		c.pipes = append(c.pipes, g.out)
	}
	c.links = &ls
	c.check = func() error {
		for i, g := range groups {
			if g.env.ChurnArrivals != c.books[i].spawned {
				return fmt.Errorf("group %d: %d arrivals but %d transfers spawned", i, g.env.ChurnArrivals, c.books[i].spawned)
			}
		}
		return nil
	}
	return []*cell{c}
}
