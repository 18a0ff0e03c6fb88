// Command mptcp-exp runs the experiments that reproduce every table and
// figure of "Design, implementation and evaluation of congestion control
// for multipath TCP" (Wischik et al., NSDI 2011).
//
// Usage:
//
//	mptcp-exp -list
//	mptcp-exp -run fig8-torus [-scale 1.0] [-seed 42]
//	mptcp-exp -run all [-parallel 8] [-trials 5] [-json]
//	mptcp-exp -exp dynamics [-where scenario=handover] [-json]
//	mptcp-exp -exp schedgrid [-where scheduler=minrtt+otr+pen,recvbuf=16] [-json]
//	mptcp-exp -exp appgrid [-where workload=video] [-json]
//	mptcp-exp -exp schedgrid -where recvbuf=16,algorithm=MPTCP -json -trace trace.jsonl
//	mptcp-exp -exp fleet [-shards 4] -json
//	mptcp-exp -analyze [-csv out.csv] grid.jsonl trace.jsonl
//	mptcp-exp -analyze -diff A.jsonl B.jsonl
//	mptcp-exp -bench-engine BENCH_engine.json [-bench-baseline BENCH_trajectory.jsonl]
//	mptcp-exp -train-sched internal/learn/bandit.model -seed 1 -scale 0.2 [-train-rounds 40]
//
// Independent trial cells fan out across -parallel workers (default
// GOMAXPROCS); results are bit-identical for every worker count. With
// -trials N each experiment repeats N times on base seeds seed..seed+N-1.
// With -json each trial emits one machine-readable JSON record per line
// instead of the rendered report; -trace additionally streams the cells'
// protocol traces (internal/trace JSONL) to a file.
//
// The grid experiments are cross products of named axes (see -list):
// tournament algorithm×topology, dynamics algorithm×topology×scenario,
// schedgrid scheduler×algorithm×topology×recvbuf, appgrid
// workload×scheduler×algorithm×topology, fleet algorithm×scheduler.
// -where axis=value[,axis=value] runs only the matching cells, each with
// the seed it has in the full grid. An axis the grid lacks, or a value
// not on it, is an error before anything runs; so is -trace on an
// experiment that cannot trace (the per-figure experiments and fleet).
//
// -analyze is the offline half: it reads any mix of the JSONL artifacts
// above (grid cell records, trial records, protocol traces — files can
// be concatenated freely), aggregates them with streaming summaries, and
// prints deterministic fixed-width tables; -csv writes the same rows as
// CSV for plotting. Two runs over the same input render identical bytes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"mptcp/internal/exp"
	"mptcp/internal/scenario"
	"mptcp/internal/sched"
	"mptcp/internal/workload"
)

// dropNaN removes NaN-valued metrics before JSON encoding: encoding/json
// rejects NaN, and an absent field is the honest rendering of "no
// observations" (metrics.Summary's Min/Max sentinel; -analyze and
// -diff show missing fields as "-").
func dropNaN(m map[string]float64) map[string]float64 {
	for k, v := range m {
		if math.IsNaN(v) {
			delete(m, k)
		}
	}
	return m
}

// trialRecord is the JSONL shape emitted by -json, one line per
// (experiment, trial): the batch identity plus the headline metrics.
type trialRecord struct {
	ID      string             `json:"id"`
	Ref     string             `json:"ref"`
	Trial   int                `json:"trial"`
	Seed    int64              `json:"seed"`
	Scale   float64            `json:"scale"`
	WallSec float64            `json:"wall_s"`
	Metrics map[string]float64 `json:"metrics"`
	Notes   []string           `json:"notes,omitempty"`
}

// cellRecord is the JSONL shape for grid experiments: one line per
// grid cell of a trial, replacing that trial's aggregate line. Its cell
// fields and their order are exp.Record's; the full field-by-field
// schema is documented in DESIGN.md §"JSONL record schema".
type cellRecord struct {
	ID    string  `json:"id"`
	Trial int     `json:"trial"`
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	exp.Record
}

func main() {
	list := flag.Bool("list", false, "list experiments and scenarios")
	id := flag.String("run", "", "experiment ID to run (or 'all')")
	expID := flag.String("exp", "", "alias of -run")
	seed := flag.Int64("seed", 42, "base random seed")
	scale := flag.Float64("scale", 1.0, "duration/topology scale (1.0 = paper fidelity)")
	parallel := flag.Int("parallel", 0, "max concurrent trial cells (0 = GOMAXPROCS)")
	trials := flag.Int("trials", 1, "repetitions per experiment, base seeds seed..seed+trials-1")
	where := flag.String("where", "", "run only the grid cells matching axis=value[,axis=value], e.g. scheduler=bandit (axes in -list); cell seeds match the full grid")
	jsonOut := flag.Bool("json", false, "emit one JSON record per trial instead of rendered reports")
	traceOut := flag.String("trace", "", "write per-connection protocol traces (JSONL) of a grid experiment's cells to FILE (not fleet)")
	analyze := flag.Bool("analyze", false, "aggregate JSONL artifacts (grid records, trial records, traces) named as positional args ('-' or none = stdin) into summary tables")
	diff := flag.Bool("diff", false, "with -analyze, compare exactly two JSONL files A and B and print per-cell delta tables instead of aggregates")
	csvOut := flag.String("csv", "", "with -analyze, also write the summary rows as CSV to FILE ('-' = stdout)")
	shards := flag.Int("shards", 0, "max concurrent partition domains per cell for sharded-engine experiments (fleet); 0 = GOMAXPROCS, results identical for every value")
	trainSched := flag.String("train-sched", "", "train the learned bandit scheduler offline over the schedgrid corpus and write the serialized model to FILE (deterministic for a fixed -seed/-scale/-train-rounds)")
	trainRounds := flag.Int("train-rounds", 40, "with -train-sched, passes over the training corpus (one ε-greedy episode per corpus cell per round)")
	benchEngine := flag.String("bench-engine", "", "measure the event engine's packet-hop path (plus the sharded fleet-shaped workload) and write the record to FILE")
	benchBaseline := flag.String("bench-baseline", "", "with -bench-engine, compare against the baseline record in FILE (.jsonl = last line of a trajectory) and fail if events/sec regressed >10%")
	benchTrajectory := flag.String("bench-trajectory", "BENCH_trajectory.jsonl", "with -bench-engine, append the record as one JSONL line to FILE ('' disables)")
	benchCommit := flag.String("bench-commit", "", "with -bench-engine, commit id stamped into the record (default $GITHUB_SHA, else 'local')")
	flag.Parse()
	if *expID != "" {
		id = expID
	}

	if *analyze {
		run := runAnalyze
		if *diff {
			run = runAnalyzeDiff
		}
		if err := run(flag.Args(), *csvOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *diff {
		fmt.Fprintln(os.Stderr, "-diff requires -analyze")
		os.Exit(1)
	}
	if *trainSched != "" {
		if err := runTrainSched(*trainSched, *seed, *scale, *trainRounds, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *benchEngine != "" {
		commit := *benchCommit
		if commit == "" {
			if commit = os.Getenv("GITHUB_SHA"); commit == "" {
				commit = "local"
			}
		}
		if err := runEngineBench(*benchEngine, *benchBaseline, *benchTrajectory, commit); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list || *id == "" {
		fmt.Println("Experiments reproducing Wischik et al., NSDI 2011:")
		for _, e := range exp.All() {
			fmt.Printf("  %-24s %-18s %s\n", e.ID, e.Ref, e.Desc)
		}
		fmt.Println("\nGrid axes (-where axis=value[,axis=value]):")
		for _, e := range exp.All() {
			if e.Grid != nil {
				var axes []string
				for _, ax := range e.Grid.Axes {
					axes = append(axes, ax.Name)
				}
				fmt.Printf("  %-24s %s\n", e.ID, strings.Join(axes, " × "))
			}
		}
		fmt.Println("\nNetwork-dynamics scenarios (-where scenario=<name>):")
		for _, s := range scenario.Infos() {
			fmt.Printf("  %-24s %s\n", s.Name, s.Desc)
		}
		fmt.Println("\nPacket schedulers (-where scheduler=<name>[+otr][+pen]):")
		fmt.Print(sched.Help())
		fmt.Println("\nApplication workloads (-where workload=<name>):")
		for _, w := range workload.Infos() {
			fmt.Printf("  %-24s %s\n", w.Name, w.Desc)
		}
		return
	}
	var exps []*exp.Experiment
	if *id == "all" {
		exps = exp.All()
	} else {
		e, ok := exp.Get(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *id)
			os.Exit(1)
		}
		exps = []*exp.Experiment{e}
	}

	cfg := exp.Config{Seed: *seed, Scale: *scale, Parallelism: *parallel, Shards: *shards, Where: *where}
	if *traceOut != "" {
		// Stands in for the trace file until every experiment is
		// checked, so a rejected run leaves no empty file behind.
		cfg.TraceW = io.Discard
	}
	for _, e := range exps {
		if err := e.Check(cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		// Trials run concurrently and each flushes its own cells to the
		// trace writer; one traced trial keeps the file deterministic.
		if *trials > 1 {
			fmt.Fprintln(os.Stderr, "-trace requires -trials 1 (concurrent trials would interleave trace output)")
			os.Exit(1)
		}
		tf, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer tf.Close()
		cfg.TraceW = tf
	}

	// Stream each trial as soon as it (and its predecessors) finish:
	// long batches produce output while they run, in deterministic
	// (experiment, trial) order.
	enc := json.NewEncoder(os.Stdout)
	var encErr error
	exp.RunBatchStream(cfg, exps, *trials, func(tr exp.TrialResult) {
		if encErr != nil {
			return
		}
		if *jsonOut {
			// Grid experiments carry per-cell records: emit one line per
			// cell instead of one aggregate line.
			if recs := tr.Result.Records; len(recs) > 0 {
				for _, r := range recs {
					r.Metrics = dropNaN(r.Metrics)
					cr := cellRecord{ID: tr.ID, Trial: tr.Trial, Seed: tr.Seed, Scale: tr.Scale, Record: r}
					if err := enc.Encode(cr); err != nil {
						encErr = fmt.Errorf("encoding %s: %v", tr.ID, err)
						return
					}
				}
				return
			}
			rec := trialRecord{
				ID:      tr.ID,
				Ref:     tr.Ref,
				Trial:   tr.Trial,
				Seed:    tr.Seed,
				Scale:   tr.Scale,
				WallSec: tr.WallSec,
				Metrics: dropNaN(tr.Result.Metrics),
				Notes:   tr.Result.Notes,
			}
			if err := enc.Encode(rec); err != nil {
				encErr = fmt.Errorf("encoding %s: %v", tr.ID, err)
			}
			return
		}
		tr.Result.Render(os.Stdout)
		if *trials > 1 {
			fmt.Printf("\n  (trial %d, seed %d, wall time %.1fs)\n\n", tr.Trial, tr.Seed, tr.WallSec)
		} else {
			fmt.Printf("\n  (wall time %.1fs)\n\n", tr.WallSec)
		}
	})
	if encErr != nil {
		fmt.Fprintln(os.Stderr, encErr)
		os.Exit(1)
	}
}
