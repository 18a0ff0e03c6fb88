package exp

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestGridWhereKeepsSeeds pins the Where contract on every grid. A
// filtered run selects a subset of cells but reproduces those cells'
// records and headline metrics bit for bit, because cell seeds derive
// from full-grid indices rather than filtered positions. Scheduler
// values are canonicalised (fleet's "MinRTT" selects its minrtt cells)
// and an axis named twice keeps both values. A filter naming an axis
// the grid lacks, or a value not on the axis (an empty one included),
// fails in Check before any cell runs, listing what the grid does have,
// and Run panics rather than silently running zero cells or the full
// grid. Tracing is refused where it cannot work instead of writing an
// empty trace.
func TestGridWhereKeepsSeeds(t *testing.T) {
	for _, tc := range []struct {
		id, where string
		keep      func(Record) bool // accepted filters: the cells it keeps
		trace     bool
		wantErr   string // rejected filters: a substring of the error
	}{
		{id: "tournament", where: "topology=wifi3g", keep: func(r Record) bool { return r.Topology == "wifi3g" }},
		{id: "dynamics", where: "scenario=flap", keep: func(r Record) bool { return r.Scenario == "flap" }},
		{id: "schedgrid", where: "scheduler=blest", keep: func(r Record) bool { return r.Scheduler == "blest" }},
		{id: "schedgrid", where: "scheduler=MinRTT+pen+otr,recvbuf=16,recvbuf=64", keep: func(r Record) bool {
			return r.Scheduler == "minrtt+otr+pen" && r.RecvBuf != 0
		}},
		{id: "appgrid", where: "workload=video", keep: func(r Record) bool { return r.Workload == "video" }},
		{id: "fleet", where: "scheduler=MinRTT", keep: func(r Record) bool { return r.Scheduler == "minrtt" }},

		{id: "tournament", where: "workload=video", wantErr: "axes: algorithm, topology"},
		{id: "dynamics", where: "scheduler=minrtt", wantErr: "axes: algorithm, topology, scenario"},
		{id: "appgrid", where: "workload=bogus", wantErr: "values: mice, rpc, video, web"},
		{id: "fleet", where: "scheduler=bandit", wantErr: "values: firstfit, minrtt"},
		{id: "fleet", where: "scheduler=nosuch", wantErr: "nosuch"},
		{id: "schedgrid", where: "scheduler", wantErr: "values: "},
		{id: "fig3-mesh", where: "algorithm=MPTCP", wantErr: "not a grid experiment"},
		{id: "fig3-mesh", trace: true, wantErr: "cannot trace"},
		{id: "fleet", trace: true, wantErr: "cannot trace"},
	} {
		name := tc.id + " " + tc.where
		if tc.trace {
			name += " traced"
		}
		t.Run(name, func(t *testing.T) {
			e, ok := Get(tc.id)
			if !ok {
				t.Fatalf("%s not registered", tc.id)
			}
			cfg := Config{Seed: 4, Scale: 0.02}
			if tc.trace {
				cfg.TraceW = io.Discard
			}
			if tc.wantErr != "" {
				cfg.Where = tc.where
				if err := e.Check(cfg); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("Check: error %v, want one mentioning %q", err, tc.wantErr)
				}
				if e.Grid != nil {
					defer func() {
						if recover() == nil {
							t.Error("Run did not panic")
						}
					}()
					e.Run(cfg)
				}
				return
			}
			full := e.Run(cfg)
			cfg.Where = tc.where
			if err := e.Check(cfg); err != nil {
				t.Fatal(err)
			}
			filtered := e.Run(cfg)
			var want []Record
			for _, r := range full.Records {
				if tc.keep(r) {
					want = append(want, r)
				}
			}
			if len(want) == 0 || len(want) == len(full.Records) {
				t.Fatalf("the filter keeps %d of %d full-grid cells; the check is vacuous", len(want), len(full.Records))
			}
			if !reflect.DeepEqual(filtered.Records, want) {
				t.Errorf("filtered records (%d) diverge from the full grid's matching cells (%d)",
					len(filtered.Records), len(want))
			}
			if len(filtered.Metrics) == 0 {
				t.Error("filtered run surfaced no metrics")
			}
			for k, v := range filtered.Metrics {
				if fv, ok := full.Metrics[k]; !ok || fv != v {
					t.Errorf("metric %s = %v in the filtered run, %v in the full grid", k, v, fv)
				}
			}
		})
	}
}
