package exp

import (
	"fmt"

	"mptcp/internal/scenario"
	"mptcp/internal/sim"
	"mptcp/internal/transport"
	"mptcp/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:  "appgrid",
		Ref: "workload layer × §5–§6",
		Desc: "Application-workload grid: every internal/workload behaviour (rpc, web, video, mice) × {minrtt, blest, " +
			"bandit, minrtt+otr+pen} × {MPTCP, OLIA} × {WiFi+3G under handover, dual-homed server} with a 16-packet shared " +
			"receive buffer; per-cell page-load time, RPC tail latency, rebuffer ratio and mouse completion time.",
		// Workload-major: registering a new workload appends its cells
		// after the existing ones.
		Grid: &Grid{
			Axes: []Axis{
				{"workload", workload.Names()},
				// Plain minrtt (the baseline the §6 countermeasures exist
				// to fix), BLEST's HOL-blocking avoidance, the
				// offline-trained bandit policy, and minrtt with both §6
				// countermeasures composed on.
				{"scheduler", []string{"minrtt", "blest", "bandit", "minrtt+otr+pen"}},
				// The paper's algorithm and its successor, enough to show
				// workload results are not an artifact of one controller.
				{"algorithm", []string{"MPTCP", "OLIA"}},
				{"topology", []string{"wifi3g", "dualhomed"}},
			},
			Title: "Application workloads: completed units (headline: latency-p95 s, or rebuffer ratio for video) per workload × scheduler × algorithm × topology",
			Note: fmt.Sprintf("all transfers share a %d-packet receive buffer; wifi3g runs the handover script (WiFi dies at 0.4T), dualhomed is static; latency fields are omitted when a cell completed nothing",
				appRecvBuf),
			Cell: appCell,
		},
	})
}

// appRecvBuf is the shared receive buffer (packets) of every
// application transfer: small enough that the overbuffered 3G subflow
// head-of-line-blocks a naive scheduler — the regime where scheduling
// decides application latency.
const appRecvBuf = 16

// appEnd is the (unscaled) issuing horizon of one cell.
const appEnd = 30 * sim.Second

// appScenarios names the network-dynamics script each topology column
// runs under; a column without one is static.
var appScenarios = map[string]string{"wifi3g": "handover"}

// appLat names each workload's latency metrics in JSONL: the summary is
// the same streaming metrics.Summary, the semantics (and so the field
// name) differ per workload.
var appLat = map[string]string{"rpc": "rpc", "web": "plt", "video": "chunk", "mice": "mice_fct"}

// appHeadline names a cell's single summary metric for the table and
// res.Metrics: the rebuffer ratio for video, the latency p95 otherwise.
func appHeadline(wl string) string {
	if wl == "video" {
		return "rebuffer_ratio"
	}
	return appLat[wl] + "_p95"
}

func appCell(c *Cell) CellOut {
	wl := c.V[0]
	mets := runAppCell(c, flowCfg{alg: newAlg(c.V[2]), sched: parseSchedSpec(c.V[1]), recvBuf: appRecvBuf, pooled: true})
	h := appHeadline(wl)
	text := f0(mets["completed"])
	if v, ok := mets[h]; ok {
		text += " (" + fmt.Sprintf("%.3g", v) + ")"
	}
	return CellOut{
		Record: Record{Scenario: appScenarios[c.V[3]], RecvBuf: appRecvBuf, Metrics: mets},
		Head:   []string{"completed", h},
		Text:   []string{text},
	}
}

// runAppCell simulates one grid cell and returns its JSONL metrics:
// build the topology column's background flows, wire the workload's
// spawner through a ConnPool over the column's multipath paths (every
// transfer gets the cell's scheduler, algorithm and shared receive
// buffer), install the column's scenario, install the workload, and run
// to the horizon. Goodput counts transfers still in flight at the
// horizon via the pool's live set — the same fix as the fleet's goodput
// undercount. Latency quantiles are present only when the cell
// completed at least one unit — an absent field, not a fake zero, is
// the honest rendering of "nothing finished" (mirroring the fleet
// experiment's fct_* handling).
func runAppCell(c *Cell, f flowCfg) map[string]float64 {
	wl := c.V[0]
	w := c.world()
	end := c.dur(appEnd)
	sc := columns[c.V[3]].build(w, f)
	pool := transport.NewConnPool(w.n)

	var pkts int64 // data packets of completed transfers
	spawn := func(n int64, done func()) {
		var conn *transport.Conn
		cfg := f.config(w, sc.paths)
		cfg.DataPackets = n
		cfg.OnComplete = func() {
			pkts += n
			pool.Put(conn)
			done()
		}
		conn = pool.Get(cfg)
		conn.Start()
	}
	if scen := appScenarios[c.V[3]]; scen != "" {
		scenario.MustBuild(scen, end).MustInstall(sc.env)
	}
	st := workload.MustBuild(wl, end).Install(&workload.Env{Sim: w.s, Spawn: spawn, End: end})
	w.s.RunUntil(end)

	mets := map[string]float64{
		"issued":       float64(st.Issued),
		"completed":    float64(st.Completed),
		"incomplete":   float64(pool.LiveCount()),
		"goodput_mbps": mbps(pkts+pool.LiveDelivered(), end),
	}
	if st.Latency.N() > 0 {
		p := appLat[wl]
		mets[p+"_mean"] = st.Latency.Mean()
		mets[p+"_p50"] = st.Latency.P50()
		mets[p+"_p95"] = st.Latency.P95()
		mets[p+"_p99"] = st.Latency.P99()
	}
	switch wl {
	case "video":
		mets["play_s"] = st.PlaySec
		mets["stall_s"] = st.StallSec
		mets["rebuffers"] = float64(st.Rebuffers)
		if total := st.PlaySec + st.StallSec; total > 0 {
			mets["rebuffer_ratio"] = st.StallSec / total
		}
	case "mice":
		mets["elephant_mbps"] = mbps(st.ElephantPkts, end)
	}
	return mets
}
