package exp

import (
	"math/rand"

	"mptcp/internal/cc"
	"mptcp/internal/core"
	"mptcp/internal/model"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/transport"
)

func init() {
	Register(&Experiment{
		ID:  "tournament",
		Ref: "cc registry × §3–§5",
		Desc: "Full algorithm grid (every registered algorithm, incl. OLIA/BALIA/WVEGAS) across torus, " +
			"dual-homed server, FatTree and WiFi+3G: per-(algorithm × topology) throughput and Jain fairness.",
		// Algorithm-major: registering a new algorithm appends its cells
		// at the end, leaving every existing cell's derived seed
		// untouched. (Adding a topology reshuffles all cell seeds.)
		Grid: &Grid{
			Axes: []Axis{
				{"algorithm", cc.Names()},
				{"topology", []string{"torus", "dualhomed", "fattree", "wifi3g"}},
			},
			Title: "Tournament: total throughput Mb/s (Jain's fairness index) per algorithm × topology",
			Note:  "grid spans the paper's five algorithms plus the Linux-kernel family (OLIA, BALIA, delay-based WVEGAS); REGULAR runs uncoupled over the same path set — the §2.1 strawman",
			Cell:  tournamentCell,
		},
	})
}

// tournamentCell drives one algorithm through one topology and reports
// the total throughput in Mb/s and Jain's fairness index over the
// scenario's flow rates. On the shared columns the throughput is the
// multipath aggregate, so an algorithm that starves the background
// TCPs (or its own flows) scores low on fairness, not throughput.
func tournamentCell(c *Cell) CellOut {
	alg, tp := newAlg(c.V[0]), c.V[1]
	var mbps, jain float64
	if tp == "fattree" {
		mbps, jain = fatTreeCell(c, alg)
	} else {
		col := columns[tp]
		out := col.run(c.world(), flowCfg{alg: alg}, "", c.dur(col.warm), c.dur(col.end))
		mbps, jain = out.mbps, out.jain
	}
	return CellOut{
		Record: Record{Metrics: map[string]float64{"mbps": mbps, "jain": jain}},
		Head:   []string{"mbps", "jain"},
		Text:   []string{f1(mbps) + " (" + f2(jain) + ")"},
	}
}

// fatTreeCell is §4's FatTree under the TP1 permutation traffic
// pattern, every flow using the algorithm under test over the usual
// path count. The workload rng derives from the base seed so all
// algorithms race on the identical permutation and path choices.
// Throughput is the mean per-host rate; fairness is Jain's index over
// the per-flow rates.
func fatTreeCell(c *Cell, alg core.Algorithm) (float64, float64) {
	w := c.world()
	warm, end := c.dur(4*sim.Second), c.dur(10*sim.Second)
	k, _, _ := dcSizes(c.Config)
	nPaths := 8
	if k < 8 {
		nPaths = 4
	}
	rng := rand.New(rand.NewSource(c.Base + 23))
	ft := topo.NewFatTree(topo.FatTreeConfig{K: k})
	src, dst := dcPatterns(rng, ft.NumHosts(), nil)["TP1"]()
	pf := func(rng *rand.Rand, s, t int) []transport.Path { return ft.Paths(rng, s, t, nPaths) }
	conns := startFlows(w, rng, src, dst, alg, pf)
	rates := w.measure(conns, warm, end)
	return perHost(src, rates), model.JainIndex(rates)
}
