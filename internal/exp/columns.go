package exp

import (
	"slices"

	"mptcp/internal/core"
	"mptcp/internal/model"
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/transport"
)

// Topology columns shared by the grid experiments and the scheduler
// trainer: the paper's three recurring scenarios, §3's torus and
// dual-homed server and §5's busy WiFi+3G client. A column builds its
// links and flows into a world and returns the scenario Env, so every
// grid drives the same scenario whatever it measures.

// flowCfg is the per-connection configuration a column applies to its
// multipath flows; single-path background TCPs keep stack defaults.
type flowCfg struct {
	alg     core.Algorithm // each connection gets a fresh instance
	sched   schedSpec      // zero value: the transport's default scheduler
	recvBuf int64          // shared receive buffer in packets; 0 = unconstrained
	// pooled builds only the column's background load; the caller runs
	// its own transfers over scene.paths (appgrid's ConnPool).
	pooled bool
}

// config is the transport.Config of one multipath connection over paths.
func (f flowCfg) config(w *world, paths []transport.Path) transport.Config {
	c := transport.Config{Alg: freshAlg(f.alg), RecvBuf: f.recvBuf, Paths: paths, Tracer: w.tr}
	if f.sched.mk != nil {
		c.Sched, c.SchedOpts = f.sched.mk(), f.sched.opts
	}
	return c
}

// scene is one built column.
type scene struct {
	// env holds the scriptable links in the column's canonical order,
	// with Spawn wired for churn.
	env *scenario.Env
	all []*transport.Conn // every persistent flow, in creation order
	mp  []*transport.Conn // the multipath flows among all
	// paths is the multipath path set; nil for the torus, whose flows
	// each take their own pair of links.
	paths []transport.Path
}

// column is one shared topology column.
type column struct {
	// warm, end is the column's paper-fidelity measurement window,
	// which the tournament uses; other grids set their own.
	warm, end sim.Time
	mk        func(w *world, f flowCfg) scene
}

// columns holds the shared topology columns by name. A grid lists the
// ones it runs on its topology axis: adding a column to a grid
// reshuffles that grid's cell seeds.
var columns = map[string]column{
	"torus":     {30 * sim.Second, 130 * sim.Second, torusColumn},
	"dualhomed": {20 * sim.Second, 120 * sim.Second, dualHomedColumn},
	"wifi3g":    {30 * sim.Second, 230 * sim.Second, wifi3gColumn},
}

// build builds the column into w; a traced world also traces the
// scriptable links' state changes.
func (c column) build(w *world, f flowCfg) scene {
	s := c.mk(w, f)
	if w.tr != nil {
		for _, d := range s.env.Links {
			d.Trace(w.tr)
		}
	}
	return s
}

// colOut is one measured column run.
type colOut struct {
	mbps      float64 // multipath aggregate over [warm, end]
	recovery  float64 // multipath aggregate over the final tenth of the run
	jain      float64 // Jain's index over all persistent flows
	churn     float64 // flows the scenario spawned
	oppRetx   float64 // opportunistic retransmissions of the multipath flows
	penalties float64 // penalization window halvings of the multipath flows
}

// run builds the column into w with its multipath flows under f,
// installs scenario scen over the column's links (none when empty;
// built with T = end, so disturbances land inside the run) and
// measures the persistent flows over [warm, end], plus a recovery
// window over the final tenth, after the last disturbance.
func (c column) run(w *world, f flowCfg, scen string, warm, end sim.Time) colOut {
	sc := c.build(w, f)
	if scen != "" {
		scenario.MustBuild(scen, end).MustInstall(sc.env)
	}
	w.s.RunUntil(warm)
	base := snapshot(sc.all)
	recStart := end - end/10
	w.s.RunUntil(recStart)
	recBase := snapshot(sc.all)
	w.s.RunUntil(end)

	rates := ratesSince(sc.all, base, end-warm)
	recRates := ratesSince(sc.all, recBase, end-recStart)
	out := colOut{jain: model.JainIndex(rates), churn: float64(sc.env.ChurnArrivals)}
	for i, conn := range sc.all {
		if slices.Contains(sc.mp, conn) {
			out.mbps += rates[i]
			out.recovery += recRates[i]
			out.oppRetx += float64(conn.OppRetx)
			out.penalties += float64(conn.Penalties)
		}
	}
	return out
}

// torusColumn: §3's five-link torus (link C at half capacity) with five
// two-path flows; scriptable links are the torus links A..E, and churn
// spawns single-path transfers across a random torus link.
func torusColumn(w *world, f flowCfg) scene {
	tor := topo.NewTorus([]float64{1000, 1000, 500, 1000, 1000}, 100*sim.Millisecond)
	var conns []*transport.Conn
	for i := 0; i < 5 && !f.pooled; i++ {
		c := transport.NewConn(w.n, f.config(w, tor.FlowPaths(i)))
		c.Start()
		conns = append(conns, c)
	}
	env := &scenario.Env{Sim: w.s, Net: w.n, Links: tor.Links}
	env.Spawn = func(pkts int64) {
		c := transport.NewConn(w.n, transport.Config{
			Paths:       []transport.Path{topo.PathThrough(tor.Links[w.s.Rand().Intn(5)])},
			DataPackets: pkts,
			Tracer:      w.tr,
		})
		c.Start()
	}
	return scene{env: env, all: conns, mp: conns}
}

// dualHomedColumn: §3's multihomed server, 2 TCPs on link 1, 6 on link
// 2 and 4 multipath flows across both; scriptable links are the two
// access links, and churn spawns client downloads on a random one.
func dualHomedColumn(w *world, f flowCfg) scene {
	rtt := 20 * sim.Millisecond
	d := topo.NewDualHomed(100, rtt/2, topo.BDPPackets(100, rtt))
	var all, mp []*transport.Conn
	addTCP := func(link, n int) {
		for i := 0; i < n; i++ {
			c := transport.NewConn(w.n, transport.Config{Paths: d.ClientPath(link), Tracer: w.tr})
			c.Start()
			all = append(all, c)
		}
	}
	addTCP(1, 2)
	addTCP(2, 6)
	for i := 0; i < 4 && !f.pooled; i++ {
		c := transport.NewConn(w.n, f.config(w, d.MultipathPaths()))
		c.Start()
		all = append(all, c)
		mp = append(mp, c)
	}
	env := &scenario.Env{Sim: w.s, Net: w.n, Links: []*topo.Duplex{d.Link1, d.Link2}}
	env.Spawn = func(pkts int64) {
		c := transport.NewConn(w.n, transport.Config{
			Paths:       d.ClientPath(1 + w.s.Rand().Intn(2)),
			DataPackets: pkts,
			Tracer:      w.tr,
		})
		c.Start()
	}
	return scene{env: env, all: all, mp: mp, paths: d.MultipathPaths()}
}

// wifi3gColumn: §5's busy wireless client, the multipath flow against
// one competing TCP per radio. The overbuffered 3G path is the slow
// subflow that head-of-line-blocks a constrained shared buffer.
// Scriptable links are [WiFi, 3G], and churn spawns short downloads
// over WiFi — neighbours on the same basestation.
func wifi3gColumn(w *world, f flowCfg) scene {
	wl := busyWireless()
	var all, mp []*transport.Conn
	if !f.pooled {
		mp = []*transport.Conn{transport.NewConn(w.n, f.config(w, wl.Paths()))}
	}
	all = append(all, mp...)
	all = append(all,
		transport.NewConn(w.n, transport.Config{Paths: wl.Paths()[:1], Tracer: w.tr}),
		transport.NewConn(w.n, transport.Config{Paths: wl.Paths()[1:], Tracer: w.tr}))
	for _, c := range all {
		c.Start()
	}
	env := &scenario.Env{Sim: w.s, Net: w.n, Links: []*topo.Duplex{wl.WiFi, wl.G3}}
	env.Spawn = func(pkts int64) {
		c := transport.NewConn(w.n, transport.Config{
			Paths:       []transport.Path{topo.PathThrough(wl.WiFi)},
			DataPackets: pkts,
			Tracer:      w.tr,
		})
		c.Start()
	}
	return scene{env: env, all: all, mp: mp, paths: wl.Paths()}
}
