package exp

import (
	"strconv"
	"strings"

	"mptcp/internal/cc"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
)

func init() {
	Register(&Experiment{
		ID:  "schedgrid",
		Ref: "sched registry × §6",
		Desc: "Packet-scheduler grid: every scheduler spec (incl. minrtt+otr+pen, the §6 countermeasures) × every " +
			"algorithm × {torus, dual-homed server, WiFi+3G} × a shared-receive-buffer sweep; per-cell throughput, " +
			"fairness and countermeasure activity.",
		// Scheduler-major: registering a new scheduler appends its cells
		// after the existing specs' (only the trailing composed spec
		// shifts), mirroring the tournament's algorithm-major layout.
		Grid: &Grid{
			Axes: []Axis{
				{"scheduler", schedSpecs()},
				{"algorithm", cc.Names()},
				{"topology", []string{"torus", "dualhomed", "wifi3g"}},
				// Shared receive buffer in packets: 0 is the
				// unconstrained default (1<<20), 64 binds mildly on the
				// overbuffered paths, 16 forces head-of-line blocking —
				// the regime the §6 countermeasures exist for.
				{"recvbuf", []string{"0", "64", "16"}},
			},
			Title: "Scheduler grid: multipath Mb/s [Jain] per scheduler × algorithm × recvbuf × topology",
			Note:  "recvbuf 0 is unconstrained; 16 forces receive-buffer head-of-line blocking — the regime where minrtt+otr+pen (opportunistic retransmission + subflow penalization, §6) must beat plain minrtt",
			Cell:  schedGridCell,
		},
	})
}

// schedSpecs is the scheduler axis of the grid: every registered
// scheduler plus the paper's §6 configuration — minRTT with both
// receive-buffer countermeasures composed on. New registry entries
// append before the composed spec, so adding a scheduler file shifts
// only the countermeasure cells' seeds.
func schedSpecs() []string {
	return append(sched.Names(), "minrtt+otr+pen")
}

// schedWarm/schedEnd are the (unscaled) measurement window of one cell:
// long enough for the blocking dynamics to reach steady state, short
// enough that the full grid stays affordable.
const (
	schedWarm = 5 * sim.Second
	schedEnd  = 45 * sim.Second
)

// schedSpec is a parsed scheduler spec: a constructor (cells run
// concurrently, so every connection needs a fresh scheduler instance)
// plus the composed countermeasure options.
type schedSpec struct {
	mk   func() sched.Scheduler
	opts sched.Options
}

func parseSchedSpec(spec string) schedSpec {
	_, opts, err := sched.Parse(spec)
	if err != nil {
		panic(err)
	}
	name := strings.SplitN(spec, "+", 2)[0]
	return schedSpec{mk: func() sched.Scheduler { return sched.MustNew(name) }, opts: opts}
}

func schedGridCell(c *Cell) CellOut {
	buf, _ := strconv.ParseInt(c.V[3], 10, 64)
	f := flowCfg{alg: newAlg(c.V[1]), sched: parseSchedSpec(c.V[0]), recvBuf: buf}
	out := columns[c.V[2]].run(c.world(), f, "", c.dur(schedWarm), c.dur(schedEnd))
	return CellOut{
		Record: Record{Metrics: map[string]float64{
			"mbps":      out.mbps,
			"jain":      out.jain,
			"opp_retx":  out.oppRetx,
			"penalties": out.penalties,
		}},
		Head: []string{"mbps", "jain"},
		Text: []string{f1(out.mbps) + " [" + f2(out.jain) + "]"},
	}
}
