// Command perfbench is the repository benchmark: it runs one named
// workload against the simulated stack (sim → netsim → transport with
// cc, sched and workload) or the real-UDP stack (mptcpnet), checks the
// outputs, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 a separate traced run of the same workload and seed
// gives the per-layer split. Worlds are built directly from the layers'
// public constructors, never through internal/exp. NOTES.md records
// why each workload exists and which layer metric should move which
// end-to-end metric.
//
// Usage:
//
//	bash perfbench/run.sh --workload dc-bulk --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare A.out B.out
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// maxProcs bounds the benchmark to the two threads of the reference
// host, so results from larger hosts stay comparable in shape.
const maxProcs = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint identifies the host a result was measured on. Results
// from different fingerprints are never compared.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// info is the record printed before the result line: what ran, where,
// and the digest of its deterministic outputs.
type info struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       int                `json:"trace"`
	Digest      string             `json:"digest,omitempty"`
	Notes       map[string]float64 `json:"notes,omitempty"`
}

type workloadFn func(seed int64, seconds float64, trace bool) (result, info, error)

var workloads = map[string]workloadFn{
	"dc-bulk":       runDCBulk,
	"app-mix":       runAppMix,
	"fleet-sharded": runFleet,
	"loopback":      runLoopback,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload: dc-bulk, app-mix, fleet-sharded or loopback")
	seed := flag.Int64("seed", 1, "seed all inputs derive from")
	seconds := flag.Float64("seconds", 10, "wall seconds to measure")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	res, inf, err := fn(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%d: %v\n", *name, *seed, *trace, err)
		os.Exit(1)
	}
	inf.Fingerprint = hostFingerprint()
	inf.Workload, inf.Seed, inf.Trace = *name, *seed, *trace
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: metric %s is %v\n", *name, *seed, k, m.Value)
			os.Exit(1)
		}
	}
	res.Correct = true
	line, _ := json.Marshal(inf)
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
}

// heapBytes reads the bytes of heap objects, live or not yet swept.
func heapBytes() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tail returns the p99 of xs, or, when fewer than ten samples lie
// beyond p99, the highest percentile that has ten beyond it; and the
// percentile used.
func tail(xs []float64) (float64, float64) {
	q := 0.99
	if n := float64(len(xs)); n*(1-q) < 10 {
		q = math.Max(0.5, 1-10/n)
	}
	return quantile(xs, q), q * 100
}

// compare prints per-metric medians of two saved outputs side by side.
// It refuses when the outputs come from different host fingerprints.
func compare(files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.out B.out")
		return 2
	}
	type side struct {
		fps  map[string]bool // host fingerprint and workload
		vals map[string][]float64
		unit map[string]string
	}
	read := func(path string) (side, error) {
		s := side{fps: map[string]bool{}, vals: map[string][]float64{}, unit: map[string]string{}}
		f, err := os.Open(path)
		if err != nil {
			return s, err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var inf info
			var res result
			if json.Unmarshal(sc.Bytes(), &inf) == nil && inf.Fingerprint.Go != "" {
				s.fps[fmt.Sprintf("%+v %s trace=%d", inf.Fingerprint, inf.Workload, inf.Trace)] = true
			} else if json.Unmarshal(sc.Bytes(), &res) == nil && res.Metrics != nil {
				for k, m := range res.Metrics {
					s.vals[k] = append(s.vals[k], m.Value)
					s.unit[k] = m.Unit
				}
			}
		}
		return s, sc.Err()
	}
	a, err := read(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	b, err := read(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if len(a.fps) != 1 || len(b.fps) != 1 {
		fmt.Fprintln(os.Stderr, "perfbench compare: each file must hold results of one workload and trace mode from one host fingerprint")
		return 3
	}
	for fa := range a.fps {
		for fb := range b.fps {
			if fa != fb {
				fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare different hosts or workloads:\n  %s\n  %s\n", fa, fb)
				return 3
			}
		}
	}
	var names []string
	for k := range a.vals {
		if _, ok := b.vals[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-36s %14s %14s %8s  %s\n", "metric", "median A", "median B", "B/A", "runs A/B")
	for _, k := range names {
		ma, mb := median(a.vals[k]), median(b.vals[k])
		ratio := math.NaN()
		if ma != 0 {
			ratio = mb / ma
		}
		fmt.Printf("%-36s %14.6g %14.6g %8.4f  %d/%d %s\n", k, ma, mb, ratio, len(a.vals[k]), len(b.vals[k]), a.unit[k])
	}
	return 0
}

// since reports the wall seconds since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
