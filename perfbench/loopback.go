package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"mptcp/internal/mptcpnet"
)

// loopback: §6 over real UDP. A closed loop of mptcpnet transfers, one
// at a time, over two unshaped 127.0.0.1 subflows; the next transfer
// starts when the previous one is verified or missed its deadline.
// Sizes are seeded and log-spread over [lbMinSize, lbMaxSize].
//
// The loop runs on one P. On the two-vCPU reference host, waking the
// sender's and receiver's goroutines across CPUs made the tail latency
// of identical runs differ by up to 86% (IQR/median); on one P it fell
// to about 10% in a quiet hour and goodput rose, though bursts of host
// contention still move it (see NOTES.md).
//
// The range stops at 256 KiB because larger unshaped transfers stall
// (see NOTES.md): a stalled transfer burns its whole deadline, so the
// end-to-end numbers would measure that lottery rather than the stack.
// The traced run probes the stall with stallProbes transfers of 1–4 MiB
// and reports how many missed their deadline.
const (
	lbMinSize     = 16 << 10
	lbMaxSize     = 256 << 10
	lbSmall       = 64 << 10
	lbSubflows    = 2
	lbRecvBuf     = 512 // shared receive buffer, segments
	lbDeadline    = 5 * time.Second
	lbMinXfers    = 50
	lbTraced      = 200 // transfers per pass of the traced run
	stallProbes   = 6
	stallMin      = 1 << 20
	stallMax      = 4 << 20
	stallDeadline = 3 * time.Second
)

type xfer struct {
	size       int
	ok         bool
	setup, lat time.Duration
	writeWait  time.Duration
	st         mptcpnet.Stats
	dup, ovf   int64
	goroutines int
	heap       float64
}

// inputs draws the seeded transfer payloads: sizes log-uniform in
// [lo, hi], each a slice at a seeded offset of a seeded buffer. Sizes
// are stratified: every block of `strata` transfers takes one size from
// each of `strata` equal log-width bands, in seeded order, so the size
// mix of two runs with different seeds differs little.
type inputs struct {
	rng    *rand.Rand
	lo, hi int
	data   []byte
	order  []int // bands left in the current block
}

const strata = 16

func newInputs(seed int64, lo, hi int) *inputs {
	g := &inputs{rng: rand.New(rand.NewSource(seed)), lo: lo, hi: hi, data: make([]byte, hi)}
	g.rng.Read(g.data)
	return g
}

func (g *inputs) next() []byte {
	if len(g.order) == 0 {
		g.order = g.rng.Perm(strata)
	}
	band := g.order[0]
	g.order = g.order[1:]
	u := (float64(band) + g.rng.Float64()) / strata
	size := int(float64(g.lo) * math.Pow(float64(g.hi)/float64(g.lo), u))
	off := g.rng.Intn(g.hi - size + 1)
	return g.data[off : off+size]
}

// runXfer moves data over a fresh two-subflow connection and verifies
// its SHA-256. tr, when set, records spans around Write, Read and Wait.
func runXfer(id uint64, data []byte, deadline time.Duration, tr *tracer) (xfer, error) {
	x := xfer{size: len(data)}
	want := sha256.Sum256(data)
	t0 := time.Now()
	var conns []net.PacketConn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	var sconns, rconns []net.PacketConn
	var remotes []net.Addr
	for i := 0; i < lbSubflows; i++ {
		a, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return x, fmt.Errorf("bind: %w", err)
		}
		conns = append(conns, a)
		b, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return x, fmt.Errorf("bind: %w", err)
		}
		conns = append(conns, b)
		sconns, rconns, remotes = append(sconns, a), append(rconns, b), append(remotes, b.LocalAddr())
	}
	rx := mptcpnet.NewReceiver(id, rconns, lbRecvBuf)
	tx := mptcpnet.NewSender(id, sconns, remotes, mptcpnet.Config{})
	x.setup = time.Since(t0)

	var wg sync.WaitGroup
	done := make(chan bool, 1)
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		a := time.Now()
		t := tr.now()
		_, err := tx.Write(data)
		tr.record(kWrite, t)
		x.writeWait = time.Since(a)
		if err == nil {
			tx.Close()
		}
	}()
	go func() {
		defer wg.Done()
		h := sha256.New()
		buf := make([]byte, 64<<10)
		for {
			t := tr.now()
			n, err := rx.Read(buf)
			tr.record(kRead, t)
			h.Write(buf[:n])
			if err == io.EOF {
				var got [32]byte
				copy(got[:], h.Sum(nil))
				done <- got == want
				return
			}
			if err != nil {
				done <- false
				return
			}
		}
	}()
	timer := time.NewTimer(deadline)
	select {
	case x.ok = <-done:
	case <-timer.C:
	}
	timer.Stop()
	x.lat = time.Since(start)
	x.goroutines = runtime.NumGoroutine()
	x.heap = heapBytes()
	if x.ok {
		// The data is already verified; Wait only lets the sender see
		// its last ACK before the sockets close, so its error is moot.
		t := tr.now()
		_ = tx.Wait(time.Second)
		tr.record(kWait, t)
	}
	x.st = tx.Stats()
	_, x.dup, x.ovf = rx.Stats()
	for _, c := range conns {
		c.Close()
	}
	conns = nil
	rx.Close()
	wg.Wait()
	return x, nil
}

func segments(size int) int64 { return int64((size + mptcpnet.MaxPayload - 1) / mptcpnet.MaxPayload) }

func runLoopback(seed int64, seconds float64, trace bool) (result, info, error) {
	runtime.GOMAXPROCS(1)
	if trace {
		return traceLoopback(seed)
	}
	in := newInputs(seed, lbMinSize, lbMaxSize)
	var xs []xfer
	start := time.Now()
	for i := 0; len(xs) < lbMinXfers || since(start) < seconds; i++ {
		x, err := runXfer(uint64(i+1), in.next(), lbDeadline, nil)
		if err != nil {
			return result{}, info{}, err
		}
		xs = append(xs, x)
	}
	var setup, small, heap []float64
	var busy float64
	var segs, bytes, ok int64
	for _, x := range xs {
		setup = append(setup, x.setup.Seconds())
		heap = append(heap, x.heap/1e6)
		busy += x.lat.Seconds()
		if !x.ok {
			continue
		}
		ok++
		segs += segments(x.size)
		bytes += int64(x.size)
		if x.size <= lbSmall {
			small = append(small, float64(x.lat)/1e6)
		}
	}
	p99, pct := tail(small)
	res := result{Attempted: int64(len(xs)), Failed: int64(len(xs)) - ok, Metrics: map[string]metric{
		"setup_s":           {median(setup), "s"},
		"sim_pkts_per_s":    {float64(segs) / busy, "1/s"},
		"sim_flows_per_s":   {float64(ok) / busy, "1/s"},
		"goodput_MBps":      {float64(bytes) / busy / 1e6, "MB/s"},
		"small_xfer_p50_ms": {median(small), "ms"},
		"small_xfer_p99_ms": {p99, "ms"},
		"peak_heap_MB":      {median(heap), "MB"},
	}}
	return res, info{Notes: map[string]float64{
		"transfers": float64(len(xs)), "small_xfer_n": float64(len(small)), "small_xfer_tail_pct": pct,
	}}, nil
}

// traceLoopback is the traced run of the loopback workload: the
// mptcpnet layer passes, then the micro rungs.
func traceLoopback(seed int64) (result, info, error) {
	modelMs := modelLoadMs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m := perLayer()
	lb, err := loopbackLayer(seed, m)
	if err != nil {
		return result{}, info{}, err
	}
	runtime.ReadMemStats(&ms1)
	m.set("workload.issued", float64(lb.attempted))
	m.set("workload.completed", float64(lb.attempted-lb.failed))
	m.set("learn.model_load_ms", modelMs)
	m.set("proc.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	m.set("proc.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	m.set("trace.overhead_frac", lb.overhead)
	m.set("trace.span_floor_ns", lb.floor)
	runRungs(m)
	return result{Attempted: lb.attempted, Failed: lb.failed, Metrics: m.out()}, info{}, nil
}

// lbLayer is what loopbackLayer reports besides the mptcpnet metrics.
type lbLayer struct {
	attempted, failed int64
	overhead          float64 // traced / untraced transfer time − 1
	floor             float64 // the tracer's empty-span cost, ns
}

// loopbackLayer fills the mptcpnet metrics of m. It runs lbTraced
// transfers untraced (counters, CPU and goroutine numbers), the same
// transfers traced (Write, Read and Wait spans), and the stall probes:
// stallProbes transfers of 1–4 MiB against a short deadline. Like the
// loopback workload it runs on one P.
func loopbackLayer(seed int64, m layerMetrics) (lbLayer, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var lb lbLayer
	pass := func(tr *tracer) ([]xfer, error) {
		in := newInputs(seed, lbMinSize, lbMaxSize)
		var xs []xfer
		for i := 0; i < lbTraced; i++ {
			x, err := runXfer(uint64(i+1), in.next(), lbDeadline, tr)
			if err != nil {
				return nil, err
			}
			xs = append(xs, x)
		}
		return xs, nil
	}
	var ru0, ru1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return lb, fmt.Errorf("getrusage: %w", err)
	}
	ref, err := pass(nil)
	if err != nil {
		return lb, err
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return lb, fmt.Errorf("getrusage: %w", err)
	}
	tr := newTracer()
	trc, err := pass(tr)
	if err != nil {
		return lb, err
	}
	stalls := 0
	probes := newInputs(seed, stallMin, stallMax)
	for i := 0; i < stallProbes; i++ {
		x, err := runXfer(uint64(lbTraced+i+1), probes.next(), stallDeadline, nil)
		if err != nil {
			return lb, err
		}
		if !x.ok {
			stalls++
		}
	}
	if err := tr.flush(filepath.Join(outDir(), fmt.Sprintf("spans-loopback-%d.jsonl", seed))); err != nil {
		return lb, err
	}

	var st mptcpnet.Stats
	var dup, ovf, bytes int64
	var refLat, trcLat, waitSum float64
	gmax := 0
	for i, x := range ref {
		st.SegsSent += x.st.SegsSent
		st.SegsRetx += x.st.SegsRetx
		st.Reinjects += x.st.Reinjects
		dup += x.dup
		ovf += x.ovf
		bytes += int64(x.size)
		lb.attempted++
		if !x.ok {
			lb.failed++
		}
		if x.goroutines > gmax {
			gmax = x.goroutines
		}
		refLat += x.lat.Seconds()
		trcLat += trc[i].lat.Seconds()
		waitSum += trc[i].writeWait.Seconds()
	}
	cpu := float64(tvUs(ru1.Utime)+tvUs(ru1.Stime)-tvUs(ru0.Utime)-tvUs(ru0.Stime)) / (float64(bytes) / 1024)
	m.set("mptcpnet.segs_sent", float64(st.SegsSent))
	m.set("mptcpnet.retx_frac", ratio(float64(st.SegsRetx), float64(st.SegsSent)))
	m.set("mptcpnet.reinjects", float64(st.Reinjects))
	m.set("mptcpnet.dup_data", float64(dup))
	m.set("mptcpnet.overflow", float64(ovf))
	m.set("mptcpnet.stalls", float64(stalls))
	m.set("mptcpnet.stall_probes", stallProbes)
	m.set("mptcpnet.cpu_us_per_KB", cpu)
	m.set("mptcpnet.write_wait_frac", waitSum/trcLat)
	m.set("mptcpnet.goroutines_max", float64(gmax))
	lb.overhead = trcLat/refLat - 1
	lb.floor = tr.floor
	return lb, nil
}

func tvUs(tv syscall.Timeval) int64 { return int64(tv.Sec)*1e6 + int64(tv.Usec) }
