package exp

import (
	"mptcp/internal/cc"
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
)

func init() {
	Register(&Experiment{
		ID:  "dynamics",
		Ref: "scenario engine × §3/§5",
		Desc: "Full algorithm grid under time-varying networks: every scenario script (flap, ramp, churn, " +
			"handover) against torus, dual-homed server and WiFi+3G; per-cell throughput, recovery rate and fairness.",
		// Algorithm-major, so registering a new algorithm appends cells
		// without perturbing the derived seeds of existing ones.
		Grid: &Grid{
			Axes: []Axis{
				{"algorithm", cc.Names()},
				{"topology", []string{"torus", "dualhomed", "wifi3g"}},
				{"scenario", scenario.Names()},
			},
			Title: "Dynamics: multipath Mb/s over the run (Mb/s in the post-disturbance tail) [Jain] per algorithm × scenario × topology",
			Note:  "every algorithm must survive flaps, ramps, churn and handover on every topology; recovery is the final tenth of the run, after the last disturbance",
			Cell:  dynamicsCell,
		},
	})
}

// dynWarm/dynEnd are the (unscaled) measurement window of one dynamics
// cell; every scenario script is built with T = dynEnd so disturbances
// land inside the window and the final tenth is post-disturbance.
const (
	dynWarm = 10 * sim.Second
	dynEnd  = 60 * sim.Second
)

// dynamicsCell runs one grid cell: the topology column with every
// multipath flow on the cell's algorithm under the cell's scenario
// script. It reports the multipath aggregate over the run and over the
// post-disturbance recovery window, Jain's index over all persistent
// flows, and the flows the scenario spawned (churn only).
func dynamicsCell(c *Cell) CellOut {
	f := flowCfg{alg: newAlg(c.V[0])}
	out := columns[c.V[1]].run(c.world(), f, c.V[2], c.dur(dynWarm), c.dur(dynEnd))
	return CellOut{
		Record: Record{Metrics: map[string]float64{
			"mbps":           out.mbps,
			"recovery_mbps":  out.recovery,
			"jain":           out.jain,
			"churn_arrivals": out.churn,
		}},
		Head: []string{"mbps", "recovery_mbps", "jain"},
		Text: []string{f1(out.mbps) + " (" + f1(out.recovery) + ") [" + f2(out.jain) + "]"},
	}
}
