package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// checkHeap asserts the queue's structural invariants: heap order over
// the keys, every queued timer's index pointing at its own key, and live
// keys plus free slots partitioning the payload slab.
func checkHeap(s *Simulator) error {
	h := s.heap
	for i := 1; i < len(h); i++ {
		if p := (i - 1) / 2; h[i].less(h[p]) {
			return fmt.Errorf("heap order: key %d (%v,%d) sorts before its parent %d (%v,%d)", i, h[i].at, h[i].seq, p, h[p].at, h[p].seq)
		}
	}
	owner := make([]int, len(s.slab)) // 0 unclaimed, 1 live key, 2 free
	for i, k := range h {
		slot := k.slot
		if slot < 0 {
			slot = ^slot
		}
		if int(slot) >= len(s.slab) {
			return fmt.Errorf("key %d names slot %d beyond the slab (%d)", i, slot, len(s.slab))
		}
		if owner[slot] != 0 {
			return fmt.Errorf("slot %d claimed twice", slot)
		}
		owner[slot] = 1
		p := s.slab[slot]
		set := 0
		for _, b := range []bool{p.fn != nil, p.h != nil, p.tm != nil} {
			if b {
				set++
			}
		}
		if set != 1 {
			return fmt.Errorf("slot %d of key %d holds %d payload kinds, want 1", slot, i, set)
		}
		if (k.slot < 0) != (p.tm != nil) {
			return fmt.Errorf("key %d: timer marker %v but payload timer %v", i, k.slot < 0, p.tm != nil)
		}
		if p.tm != nil {
			if p.tm.index != i {
				return fmt.Errorf("timer of key %d has index %d", i, p.tm.index)
			}
			if p.tm.at != k.at {
				return fmt.Errorf("timer of key %d reports When %v, key says %v", i, p.tm.at, k.at)
			}
		}
	}
	for _, slot := range s.free {
		if slot < 0 || int(slot) >= len(s.slab) {
			return fmt.Errorf("free slot %d outside the slab (%d)", slot, len(s.slab))
		}
		if owner[slot] != 0 {
			return fmt.Errorf("free slot %d is also live or freed twice", slot)
		}
		owner[slot] = 2
		if p := s.slab[slot]; p.fn != nil || p.h != nil || p.arg != nil || p.tm != nil {
			return fmt.Errorf("free slot %d still holds references", slot)
		}
	}
	for slot, o := range owner {
		if o == 0 {
			return fmt.Errorf("slot %d is neither live nor free", slot)
		}
	}
	return nil
}

// refQueue is the reference model: an unsorted list popped by linear
// scan for the least (at, seq), with timers tracked by table index.
type refQueue struct {
	now   Time
	seq   uint64
	q     []refEntry
	when  []Time // per timer: last armed instant
	alive []bool // per timer: not released
}

type refEntry struct {
	at    Time
	seq   uint64
	id    int
	timer int // -1 for At/Post
}

func (r *refQueue) find(timer int) int {
	for i, e := range r.q {
		if e.timer == timer {
			return i
		}
	}
	return -1
}

func (r *refQueue) schedule(at Time, id, timer int) {
	r.seq++
	if timer >= 0 {
		r.when[timer] = at
		if i := r.find(timer); i >= 0 {
			r.q[i].at, r.q[i].seq, r.q[i].id = at, r.seq, id
			return
		}
	}
	r.q = append(r.q, refEntry{at: at, seq: r.seq, id: id, timer: timer})
}

func (r *refQueue) stop(timer int) {
	if i := r.find(timer); i >= 0 {
		r.q = append(r.q[:i], r.q[i+1:]...)
	}
}

func (r *refQueue) pop() (refEntry, bool) {
	if len(r.q) == 0 {
		return refEntry{}, false
	}
	m := 0
	for i, e := range r.q {
		if e.at < r.q[m].at || (e.at == r.q[m].at && e.seq < r.q[m].seq) {
			m = i
		}
	}
	e := r.q[m]
	r.q = append(r.q[:m], r.q[m+1:]...)
	r.now = e.at
	return e, true
}

// diffHarness applies one random operation sequence to a Simulator and
// to the reference model in lock step. Each dispatched event checks that
// the reference would have dispatched the same event next, and may run
// further random operations from inside its callback.
type diffHarness struct {
	t       *testing.T
	seed    int64
	rng     *rand.Rand
	s       *Simulator
	ref     refQueue
	timers  []*Timer
	cur     []int // per timer: id of its current arming
	nextID  int
	fired   int
	nested  bool // callbacks may run operations
	opIndex int
}

func (d *diffHarness) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("seed %d, op %d: %s", d.seed, d.opIndex, fmt.Sprintf(format, args...))
}

func (d *diffHarness) OnEvent(arg any) { d.fire(arg.(int)) }

func (d *diffHarness) fire(id int) {
	d.t.Helper()
	want, ok := d.ref.pop()
	if !ok {
		d.fail("dispatched event %d, reference queue is empty", id)
	}
	if want.id != id || d.s.Now() != want.at {
		d.fail("dispatched event %d at %v, reference dispatches %d at %v", id, d.s.Now(), want.id, want.at)
	}
	d.fired++
	d.check()
	if d.nested {
		for n := d.rng.Intn(3); n > 0; n-- {
			d.op(false)
		}
	}
}

// delay draws a scheduling offset; small values make same-instant ties
// common.
func (d *diffHarness) delay() Time {
	if d.rng.Intn(4) == 0 {
		return 0
	}
	return Time(d.rng.Intn(8)) * Microsecond
}

func (d *diffHarness) liveTimer() int {
	var live []int
	for i, ok := range d.ref.alive {
		if ok {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return -1
	}
	return live[d.rng.Intn(len(live))]
}

// op runs one random operation; top-level operations may also advance
// the clock.
func (d *diffHarness) op(top bool) {
	d.t.Helper()
	n := 7
	if top {
		n = 9
	}
	switch c := d.rng.Intn(n); c {
	case 0: // At
		id := d.nextID
		d.nextID++
		at := d.s.Now() + d.delay()
		d.ref.schedule(at, id, -1)
		d.s.At(at, func() { d.fire(id) })
	case 1: // Post
		id := d.nextID
		d.nextID++
		at := d.s.Now() + d.delay()
		d.ref.schedule(at, id, -1)
		d.s.Post(at, d, id)
	case 2: // NewTimer
		ti := len(d.timers)
		d.timers = append(d.timers, d.s.NewTimer(func() { d.fire(d.cur[ti]) }))
		d.cur = append(d.cur, -1)
		d.ref.when = append(d.ref.when, 0)
		d.ref.alive = append(d.ref.alive, true)
	case 3, 4: // Reset / ResetAt
		ti := d.liveTimer()
		if ti < 0 {
			return
		}
		id := d.nextID
		d.nextID++
		d.cur[ti] = id
		dt := d.delay()
		d.ref.schedule(d.s.Now()+dt, id, ti)
		if c == 3 {
			d.timers[ti].Reset(dt)
		} else {
			d.timers[ti].ResetAt(d.s.Now() + dt)
		}
	case 5: // Stop
		ti := d.liveTimer()
		if ti < 0 {
			return
		}
		want := d.ref.find(ti) >= 0
		d.ref.stop(ti)
		if got := d.timers[ti].Stop(); got != want {
			d.fail("timer %d: Stop() = %v, want %v", ti, got, want)
		}
	case 6: // Release
		ti := d.liveTimer()
		if ti < 0 {
			return
		}
		d.ref.stop(ti)
		d.ref.alive[ti] = false
		d.timers[ti].Release()
		d.timers[ti] = nil
	case 7: // advance the clock
		end := d.s.Now() + d.delay()
		d.s.RunUntil(end)
		d.ref.now = max(d.ref.now, end)
	case 8: // dispatch one event
		if len(d.s.heap) > 0 {
			d.s.step()
		}
	}
	d.check()
}

// check compares every observable of the two models.
func (d *diffHarness) check() {
	d.t.Helper()
	if err := checkHeap(d.s); err != nil {
		d.fail("%v", err)
	}
	if got, want := d.s.Pending(), len(d.ref.q); got != want {
		d.fail("Pending() = %d, reference %d", got, want)
	}
	if d.s.Now() != d.ref.now {
		d.fail("Now() = %v, reference %v", d.s.Now(), d.ref.now)
	}
	for ti, tm := range d.timers {
		if !d.ref.alive[ti] {
			continue
		}
		if got, want := tm.Active(), d.ref.find(ti) >= 0; got != want {
			d.fail("timer %d: Active() = %v, reference %v", ti, got, want)
		}
		if got, want := tm.When(), d.ref.when[ti]; got != want {
			d.fail("timer %d: When() = %v, reference %v", ti, got, want)
		}
	}
}

// TestHeapDifferential replays seeded random sequences of At, Post,
// NewTimer, Reset/ResetAt, Stop, Release and clock advances — from the
// top level and from inside callbacks, with frequent same-instant ties —
// on the Simulator and on a reference list sorted by (at, seq), and
// compares dispatch order, Pending, Active and When after every
// operation. A failure names the seed that reproduces it.
func TestHeapDifferential(t *testing.T) {
	seeds, ops := 300, 400
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		d := &diffHarness{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), s: New(seed), nested: true}
		for d.opIndex = 0; d.opIndex < ops; d.opIndex++ {
			d.op(true)
		}
		d.nested = false
		d.s.Run()
		d.check()
		if len(d.ref.q) != 0 {
			d.fail("Run() left %d reference events undispatched", len(d.ref.q))
		}
		if d.fired == 0 {
			d.fail("no event fired")
		}
	}
}

// --- references are dropped once an event is dispatched or cancelled ---

type finalized struct {
	_    [64]byte
	done *atomic.Bool
}

func newFinalized(done *atomic.Bool) *finalized {
	f := &finalized{done: done}
	runtime.SetFinalizer(f, func(f *finalized) { f.done.Store(true) })
	return f
}

// collected runs the collector until done is set, or gives up.
func collected(done *atomic.Bool) bool {
	for i := 0; i < 50 && !done.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return done.Load()
}

type dropHandler struct{}

func (dropHandler) OnEvent(any) {}

// TestDispatchedAndCancelledReleaseReferences pins that the queue keeps
// nothing alive once an event has run or been cancelled: the argument of
// a dispatched Post, the closure of a dispatched At and the payload of a
// stopped timer all become unreachable while the simulator lives on. A
// slab that skipped zeroing a freed slot would hold them until the slot
// is reused.
func TestDispatchedAndCancelledReleaseReferences(t *testing.T) {
	cases := []struct {
		name  string
		sched func(s *Simulator, done *atomic.Bool)
	}{
		{"post-arg", func(s *Simulator, done *atomic.Bool) {
			s.Post(s.Now()+Microsecond, dropHandler{}, newFinalized(done))
			s.Run()
		}},
		{"at-closure", func(s *Simulator, done *atomic.Bool) {
			f := newFinalized(done)
			s.At(s.Now()+Microsecond, func() { _ = f.done })
			s.Run()
		}},
		{"stopped-timer", func(s *Simulator, done *atomic.Bool) {
			f := newFinalized(done)
			tm := s.NewTimer(func() { _ = f.done })
			tm.Reset(Second)
			tm.Stop()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(1)
			// Keep unrelated events queued so the slab stays in use.
			s.Post(Second*10, dropHandler{}, nil)
			var done atomic.Bool
			c.sched(s, &done)
			if !collected(&done) {
				t.Errorf("%s: object still reachable after the event left the queue", c.name)
			}
			runtime.KeepAlive(s)
		})
	}
}

// --- post/pop at a standing depth ---

// depthChurn reposts itself at a pseudo-random delay until left events
// ran, so the heap stays at its initial depth, and rearms one of a pool
// of timers on every eighth event (the per-ACK RTO rearm mix).
type depthChurn struct {
	s      *Simulator
	delays []Time
	timers []*Timer
	left   int
}

func (c *depthChurn) OnEvent(any) {
	if c.left <= 0 {
		return
	}
	c.left--
	d := c.delays[c.left&(len(c.delays)-1)]
	if c.left&7 == 0 {
		c.timers[c.left>>3&(len(c.timers)-1)].Reset(4 * d)
	}
	c.s.Post(c.s.Now()+d, c, nil)
}

// BenchmarkPostPopDepth measures one Post plus one pop at a standing heap
// depth: 64 (an application world) and 16k (the §4 FatTree's pending
// set), with a timer rearm on every eighth event.
func BenchmarkPostPopDepth(b *testing.B) {
	for _, depth := range []int{64, 16384} {
		name := fmt.Sprint(depth)
		if depth >= 1024 {
			name = fmt.Sprintf("%dk", depth/1024)
		}
		b.Run(name, func(b *testing.B) {
			s := New(1)
			rng := rand.New(rand.NewSource(1))
			c := &depthChurn{s: s, delays: make([]Time, 4096), timers: make([]*Timer, 64), left: b.N}
			for i := range c.delays {
				c.delays[i] = Time(1 + rng.Intn(2*depth))
			}
			for i := range c.timers {
				c.timers[i] = s.NewTimer(func() {})
			}
			for i := 0; i < depth; i++ {
				s.Post(c.delays[i&(len(c.delays)-1)], c, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			steps := s.Steps()
			s.Run()
			if n := s.Steps() - steps; n > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
			}
		})
	}
}
