package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"

	"mptcp/internal/netsim"
	"mptcp/internal/sim"
	"mptcp/internal/transport"
	"mptcp/internal/workload"
)

// smallPkts is the largest transfer, in 1500-byte packets, that counts
// as small (64 KiB) for the small_xfer latency metrics.
const smallPkts = 65536 / netsim.DataPacketSize

// counters are the exported transport counters of finished connections.
type counters struct {
	sent, retx, rtos, fastRetx, oppRetx, penalties int64
}

func (k *counters) add(c *transport.Conn) {
	for _, sf := range c.Subflows() {
		k.sent += sf.PktsSent
		k.retx += sf.PktsRetx
		k.rtos += sf.RTOs
		k.fastRetx += sf.FastRetx
	}
	k.oppRetx += c.OppRetx
	k.penalties += c.Penalties
}

func (k *counters) merge(o counters) {
	k.sent += o.sent
	k.retx += o.retx
	k.rtos += o.rtos
	k.fastRetx += o.fastRetx
	k.oppRetx += o.oppRetx
	k.penalties += o.penalties
}

// book runs the transfers of one simulated world through a ConnPool and
// keeps their accounts: what was spawned and completed, the packets
// delivered, the wall-clock latency of small transfers, and a running
// digest of every completion (index, size, simulated instant).
type book struct {
	s    *sim.Simulator
	pool *transport.ConnPool
	tr   *tracer
	warm sim.Time // small transfers spawned before warm are not timed

	live    []*transport.Conn
	liveIdx map[*transport.Conn]int

	spawned, done int64
	pkts          int64     // data packets of completed transfers
	small         []float64 // simulated ms, spawn to completion, transfers <= smallPkts
	ctr           counters
	h             hash.Hash
}

func newBook(s *sim.Simulator, n *netsim.Net, tr *tracer) *book {
	return &book{s: s, pool: transport.NewConnPool(n), tr: tr, liveIdx: map[*transport.Conn]int{}, h: sha256.New()}
}

// spawn starts one transfer of pkts packets with cfg and calls done,
// if set, when its last packet is acknowledged. It is the body of the
// workload.Spawner every sim workload hands its issuing layer.
func (b *book) spawn(cfg transport.Config, pkts int64, done func()) {
	b.tr.begin(kSpawn)
	idx := b.spawned
	b.spawned++
	start := b.s.Now()
	small := pkts <= smallPkts && start >= b.warm
	var c *transport.Conn
	cfg.DataPackets = pkts
	cfg.OnComplete = func() {
		if small {
			b.small = append(b.small, (b.s.Now() - start).Millis())
		}
		b.done++
		b.pkts += pkts
		b.ctr.add(c)
		hashInts(b.h, idx, pkts, int64(b.s.Now()))
		b.dropLive(c)
		b.pool.Put(c)
		if done != nil {
			b.tr.begin(kDone)
			done()
			b.tr.end()
		}
	}
	b.tr.begin(kConnGet)
	c = b.pool.Get(cfg)
	b.tr.end()
	b.liveIdx[c] = len(b.live)
	b.live = append(b.live, c)
	c.Start()
	b.tr.end()
}

func (b *book) dropLive(c *transport.Conn) {
	i := b.liveIdx[c]
	last := b.live[len(b.live)-1]
	b.live[i] = last
	b.liveIdx[last] = i
	b.live = b.live[:len(b.live)-1]
	delete(b.liveIdx, c)
}

// cell is one simulated world: a single Simulator, or the domains of a
// sharded engine advanced together.
type cell struct {
	name    string
	sims    []*sim.Simulator
	advance func(t sim.Time) // RunUntil, or Sharded.Run
	slice   sim.Time         // RunUntil slice; heap depth is sampled between slices
	horizon sim.Time         // issuing horizon; a multiple of slice
	// warm is when measuring starts: rates count the packets, transfers
	// and busy time after it (0: the whole episode).
	warm sim.Time
	// window, when positive, splits the measured time into windows of
	// that many slices, each reported on its own.
	window int
	// horizonMax, when above horizon, lets an untraced run extend the
	// issuing horizon until its measuring budget is spent.
	horizonMax sim.Time
	// closed is set when the issuing horizon is reached.
	closed bool
	links  *linkSet
	books  []*book
	bulk   []*transport.Conn // long-lived flows, stopped at the horizon
	stats  []*workload.Stats
	pipes  []*sim.Pipe
	// check, when set, verifies workload-specific conservation at the
	// end of the drain.
	check func() error
}

func (c *cell) liveCount() int {
	n := 0
	for _, b := range c.books {
		n += len(b.live)
	}
	return n
}

// window is one measured stretch: packets delivered in order and
// transfers completed in it, and the time RunUntil was busy: the
// simulating thread's CPU time, or wall time for a sharded cell.
type window struct {
	pkts, flows int64
	busy        time.Duration
}

// epResult is what one episode measured.
type epResult struct {
	windows   []window // the measured stretches: the whole episode unless its cells split it
	whole     window   // the sum over cells measured whole
	setup     time.Duration
	run       time.Duration // wall time inside RunUntil, horizon and drain
	pktsAll   int64         // data packets delivered in order in the whole episode
	flowsAll  int64         // completed transfers in the whole episode
	small     []float64
	attempted int64
	failed    int64 // transfers stranded after the drain, bulk flows that delivered nothing
	// unfinished counts transfers still delivering when the drain hit
	// drainMax: attempted, neither completed nor failed.
	unfinished int64
	drainNotes []string // one line per stranded or unfinished transfer
	steps      uint64
	depthMax   int
	depthSum   float64
	depthN     int
	hops       int64
	drops      int64
	pipeMsgs   int64
	ctr        counters
	peakHeap   float64 // bytes above the heap the episode started with
	mallocs    uint64  // heap allocations while the cells ran
	gcCycles   uint32
	gcPauseNs  uint64
	digest     [32]byte
}

// runEpisode builds the cells with build (timed as set-up), runs each
// to its horizon and drain, checks conservation, and digests the
// deterministic outputs. budget, when positive, is the wall time a cell
// with an extensible horizon measures for. With memstats it also reads
// allocation and GC counters around the run phase.
func runEpisode(build func(tr *tracer) []*cell, tr *tracer, memstats bool, budget time.Duration) (epResult, error) {
	var r epResult
	// Start every episode from a collected heap, so its peak counts the
	// episode's own worlds and garbage rather than earlier episodes'.
	runtime.GC()
	heap0 := heapBytes()
	var cells []*cell
	r.setup = timedBuild(func() { cells = build(tr) })

	var ms0, ms1 runtime.MemStats
	if memstats {
		runtime.ReadMemStats(&ms0)
	}
	dig := sha256.New()
	for _, c := range cells {
		if err := r.runCell(c, tr, dig, budget); err != nil {
			return r, fmt.Errorf("cell %s: %w", c.name, err)
		}
	}
	if memstats {
		runtime.ReadMemStats(&ms1)
		r.mallocs = ms1.Mallocs - ms0.Mallocs
		r.gcCycles = ms1.NumGC - ms0.NumGC
		r.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	}
	if r.whole.busy > 0 {
		r.windows = append(r.windows, r.whole)
	}
	copy(r.digest[:], dig.Sum(nil))
	r.peakHeap -= heap0
	return r, nil
}

// Drain limits: after the issuing horizon a cell runs until no transfer
// is live. Heavy-tailed sizes make some transfers long, and a subflow
// that lost its path may wait out a 60 s maximal RTO, so the drain only
// gives up on a transfer set that made no progress for stallAfter, or
// after drainMax in all. A transfer that made no progress for stallAfter
// is stranded and counts as failed; one still delivering at drainMax is
// unfinished, not failed: a Pareto(1.5) mouse of a few hundred thousand
// packets on the lossy WiFi path of app-mix delivers ~75 packets/s and
// needs longer.
const (
	stallAfter = 150 * sim.Second
	drainMax   = 3600 * sim.Second
)

// mark is a live transfer's delivered packets and when they last grew.
type mark struct {
	pkts int64
	at   sim.Time
}

// markProgress records, at t, every live transfer whose delivered count
// grew since moved last saw it.
func (c *cell) markProgress(moved map[*transport.Conn]mark, t sim.Time) {
	for _, b := range c.books {
		for _, lc := range b.live {
			if m, ok := moved[lc]; !ok || m.pkts != lc.Delivered() {
				moved[lc] = mark{lc.Delivered(), t}
			}
		}
	}
}

// delivered counts the data packets the cell's receivers delivered in
// order so far, and its completed transfers.
func (c *cell) delivered() (pkts, flows int64) {
	for _, b := range c.books {
		pkts += b.pkts
		flows += b.done
		for _, lc := range b.live {
			pkts += lc.Delivered()
		}
	}
	for _, bc := range c.bulk {
		pkts += bc.Delivered()
	}
	return pkts, flows
}

func (r *epResult) runCell(c *cell, tr *tracer, dig hash.Hash, budget time.Duration) error {
	var basePkts, baseFlows int64
	var win window
	winSlices := 0
	deadline := time.Now().Add(budget)
	whole := c.window <= 0
	// A one-simulator cell is timed by its thread's CPU time, so it stays
	// on that thread; a sharded cell works on several threads and is timed
	// by the wall clock.
	single := len(c.sims) == 1
	if single {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	step := func(t sim.Time) {
		tr.begin(kRun)
		var cpu time.Duration
		if single {
			cpu = threadCPU()
		}
		a := time.Now()
		c.advance(t)
		d := time.Since(a)
		busy := d
		if single {
			busy = threadCPU() - cpu
		}
		tr.end()
		if t > c.warm {
			r.run += d
			if whole || !c.closed {
				win.busy += busy
				winSlices++
			}
		}
		if t == c.warm {
			basePkts, baseFlows = c.delivered()
			deadline = time.Now().Add(budget)
		}
		if !whole && !c.closed && winSlices == c.window {
			p, f := c.delivered()
			win.pkts, win.flows = p-basePkts, f-baseFlows
			basePkts, baseFlows = p, f
			r.windows = append(r.windows, win)
			win, winSlices = window{}, 0
		}
		for _, s := range c.sims {
			d := s.Pending()
			if d > r.depthMax {
				r.depthMax = d
			}
			r.depthSum += float64(d)
			r.depthN++
		}
		if h := heapBytes(); h > r.peakHeap {
			r.peakHeap = h
		}
	}
	for t := c.slice; ; t += c.slice {
		step(t)
		if t >= c.horizon && (budget <= 0 || t >= c.horizonMax || time.Now().After(deadline)) {
			c.horizon = t
			break
		}
	}
	c.closed = true
	for _, b := range c.bulk {
		b.Stop()
	}
	progress, last := c.delivered()
	lastAt := c.horizon
	moved := map[*transport.Conn]mark{} // when each live transfer last delivered
	c.markProgress(moved, c.horizon)
	t := c.horizon
	for c.liveCount() > 0 && t-lastAt < stallAfter && t < c.horizon+drainMax {
		t += c.slice
		step(t)
		if p, f := c.delivered(); p+f != progress+last {
			progress, last, lastAt = p, f, t
		}
		c.markProgress(moved, t)
	}
	end, endFlows := c.delivered()
	if whole {
		r.whole.pkts += end - basePkts
		r.whole.flows += endFlows - baseFlows
		r.whole.busy += win.busy
	}
	r.pktsAll += end
	r.flowsAll += endFlows

	// Everything below is accounting and checking, outside the timed run.
	h := sha256.New()
	for _, s := range c.sims {
		r.steps += s.Steps()
		hashInts(h, int64(s.Steps()))
	}
	for _, b := range c.books {
		r.attempted += b.spawned
		r.small = append(r.small, b.small...)
		r.ctr.merge(b.ctr)
		h.Write(b.h.Sum(nil))
		hashInts(h, b.spawned, b.done)
		if b.spawned != b.done+int64(len(b.live)) {
			return fmt.Errorf("spawner conservation: spawned %d != completed %d + live %d", b.spawned, b.done, len(b.live))
		}
		for _, lc := range b.live {
			r.ctr.add(lc)
			m := moved[lc]
			if t-m.at >= stallAfter {
				r.failed++
				r.drainNotes = append(r.drainNotes, fmt.Sprintf("cell %s: transfer stranded: %d packets delivered, none in the last %v", c.name, m.pkts, t-m.at))
			} else {
				r.unfinished++
				r.drainNotes = append(r.drainNotes, fmt.Sprintf("cell %s: transfer unfinished at the drain limit: %d packets delivered, still delivering", c.name, m.pkts))
			}
		}
	}
	for _, bc := range c.bulk {
		r.attempted++
		d := bc.Delivered()
		if d == 0 {
			r.failed++
		}
		r.ctr.add(bc)
		hashInts(h, d)
		for i := range bc.Subflows() {
			hashInts(h, bc.SubflowDelivered(i))
		}
	}
	now := c.sims[0].Now()
	for _, l := range c.links.links {
		st := l.Stats
		r.hops += st.Arrivals
		r.drops += st.Drops
		hashInts(h, st.Arrivals, st.Drops, st.RandomLoss, st.Departures, st.BytesSent, int64(st.BusyTime))
		if q := int64(l.QueueLen(now)); st.Arrivals-st.Departures-st.Drops < q {
			return fmt.Errorf("link %s: %d accepted but undeparted < %d queued", l.Name, st.Arrivals-st.Departures-st.Drops, q)
		}
	}
	for _, st := range c.stats {
		hashInts(h, st.Issued, st.Completed, st.Latency.N(), st.Rebuffers, st.ElephantPkts)
		hashFloats(h, st.Latency.Mean(), st.Latency.P50(), st.Latency.P99(), st.PlaySec, st.StallSec)
	}
	for _, p := range c.pipes {
		r.pipeMsgs += p.Sent
		hashInts(h, p.Sent)
	}
	if c.check != nil {
		if err := c.check(); err != nil {
			return err
		}
	}
	dig.Write(h.Sum(nil))

	// Stop what is still running and let the network empty, then every
	// link must balance: offered = departed + dropped + still queued.
	for _, b := range c.books {
		for _, lc := range b.live {
			lc.Stop()
		}
	}
	c.advance(c.sims[0].Now() + 30*sim.Second)
	now = c.sims[0].Now()
	for _, l := range c.links.links {
		st := l.Stats
		q := int64(l.QueueLen(now))
		if st.Arrivals != st.Departures+st.Drops+q || q != 0 {
			return fmt.Errorf("link %s after drain: arrivals %d != departures %d + drops %d + queued %d",
				l.Name, st.Arrivals, st.Departures, st.Drops, q)
		}
	}
	return nil
}

// workloadCheck verifies Issued == Completed + stranded for an
// application workload whose transfers all run through b: a unit not
// yet completed always has at least one transfer in flight.
func workloadCheck(st *workload.Stats, b *book) func() error {
	return func() error {
		if open := st.Issued - st.Completed; open < 0 || open > int64(len(b.live)) {
			return fmt.Errorf("workload conservation: issued %d, completed %d, %d transfers in flight", st.Issued, st.Completed, len(b.live))
		}
		return nil
	}
}

// linkSet collects a world's links once each, in first-seen order.
type linkSet struct {
	seen  map[*netsim.Link]bool
	links []*netsim.Link
}

func (ls *linkSet) add(paths ...transport.Path) {
	if ls.seen == nil {
		ls.seen = map[*netsim.Link]bool{}
	}
	for _, p := range paths {
		for _, l := range append(append([]*netsim.Link(nil), p.Fwd...), p.Rev...) {
			if !ls.seen[l] {
				ls.seen[l] = true
				ls.links = append(ls.links, l)
			}
		}
	}
}

func hashInts(h hash.Hash, xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

func hashFloats(h hash.Hash, xs ...float64) {
	for _, x := range xs {
		if math.IsNaN(x) {
			x = -1
		}
		hashInts(h, int64(math.Float64bits(x)))
	}
}

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU returns the calling thread's CPU time. The kernel leaves out
// time the hypervisor stole, so on a shared VM it tracks the simulator's
// work rather than how long the host let it run. Unlike getrusage, this
// clock is exact between scheduler ticks.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // the clock exists on every Linux the module builds for
	}
	return time.Duration(ts.Nano())
}

// timedBuild runs build on a locked thread with the collector paused and
// returns its CPU time. Whether a collection lands inside a build made
// build times vary by a factor of 2.5 within one process; the cost of
// collecting a larger world still shows in the episode and in
// peak_heap_MB.
func timedBuild(build func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := threadCPU()
	build()
	return threadCPU() - t0
}
