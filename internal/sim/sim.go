// Package sim provides a deterministic discrete-event simulation engine.
//
// It is the substrate under the packet-level network simulator used to
// reproduce the evaluation of "Design, implementation and evaluation of
// congestion control for multipath TCP" (Wischik et al., NSDI 2011). The
// engine is single-threaded and fully deterministic: events firing at the
// same instant are executed in scheduling order, and all randomness flows
// from one seeded source.
//
// # The event queue: a key heap over a payload slab
//
// The queue is split in two. A binary min-heap of 24-byte keys
// {at, seq, slot}, ordered by (at, seq), holds no pointers, so sifting
// it moves small records the garbage collector never scans. Each key
// names a slot in a payload slab {fn, h, arg, tm} that holds what to run:
// a one-shot function (At), a typed handler with its argument (Post) or a
// rearmable timer (NewTimer). Payloads never move while their key sifts;
// a dispatched or cancelled event's slot is zeroed, so the slab keeps no
// garbage alive, and returned to an int32 free list for the next event.
//
// Sifts are hole sifts: each level writes one key instead of swapping
// two. A timer's key carries ^slot (a negative slot), and only such keys
// update Timer.index as they move, so Reset can re-key a queued timer in
// place and restore heap order without abandoning a dead entry.
// Cancelled events are removed eagerly; the heap holds live events only.
//
// Scheduling never allocates once the heap, slab and free list have grown
// to the simulation's peak depth: Post stores a pre-built handler
// interface plus a pointer-sized argument, and timers are rearmed in
// place. A Timer freelist owned by the Simulator (mirroring netsim's
// packet freelist) recycles timer objects across short-lived connections
// via NewTimer/Release.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a simulated instant measured in integer nanoseconds since the
// start of the simulation. Integer time keeps the engine exactly
// reproducible across runs and platforms.
type Time int64

// Duration constants, mirroring package time but in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts a floating-point number of seconds into a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// Handler consumes a typed event posted with Simulator.Post. Implementing
// it lets an object (a network, an endpoint) receive scheduled callbacks
// without a per-event closure: the packet-forward hot path schedules
// {handler, argument} pairs that are stored by value in the event heap.
type Handler interface {
	OnEvent(arg any)
}

// Timer is a rearmable handle to a scheduled event, created with
// Simulator.NewTimer. Reset rearms it in place: if the timer is queued,
// its key is re-keyed and the heap repaired (heap fix), so stop-and-rearm
// cycles — a retransmission timer touched on every ACK — create no
// garbage and leave no dead entries in the queue.
type Timer struct {
	s     *Simulator
	fn    func()
	at    Time
	index int // position of the timer's key in the heap, -1 when idle
}

// Stop cancels the timer, removing its event from the queue. It is safe
// to call on a timer that has already fired or been stopped. It reports
// whether the call prevented the event from firing.
func (t *Timer) Stop() bool {
	if t == nil || t.index < 0 {
		return false
	}
	s := t.s
	k := s.remove(t.index)
	t.index = -1
	s.freeSlot(^k.slot)
	return true
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool { return t != nil && t.index >= 0 }

// When returns the instant the timer is (or was last) scheduled to fire;
// 0 for a timer never armed since NewTimer returned it.
func (t *Timer) When() Time { return t.at }

// Reset (re)arms the timer to fire d from now. If the timer is already
// queued its key is rearmed in place; otherwise a fresh event is pushed.
// Like the initial scheduling, a rearm counts as a new scheduling for
// same-instant ordering purposes.
func (t *Timer) Reset(d Time) { t.ResetAt(t.s.now + d) }

// ResetAt (re)arms the timer to fire at absolute time at.
func (t *Timer) ResetAt(at Time) {
	s := t.s
	if at < s.now {
		panic(fmt.Sprintf("sim: rearming timer at %v before now %v", at, s.now))
	}
	t.at = at
	s.seq++
	if i := t.index; i >= 0 {
		k := s.heap[i]
		k.at, k.seq = at, s.seq
		s.fix(i, k)
		return
	}
	s.push(key{at: at, seq: s.seq, slot: ^s.alloc(payload{tm: t})})
}

// Release stops the timer and returns it to the simulator's freelist for
// reuse by a later NewTimer. The caller must not touch the handle
// afterwards; owners release their timers on teardown (e.g. a completed
// connection) so workloads that churn connections recycle timer objects.
func (t *Timer) Release() {
	if t == nil || t.fn == nil {
		return // nil or already released: never double-insert in the freelist
	}
	t.Stop()
	t.fn = nil
	t.s.timers = append(t.s.timers, t)
}

// key orders one queued event. slot indexes the payload slab; a timer's
// key stores ^slot, which marks it as the one kind of key whose moves
// must be mirrored into Timer.index.
type key struct {
	at   Time
	seq  uint64
	slot int32
}

// less is the queue order: time, then scheduling sequence. seq is unique,
// so the order is total and the dispatch sequence is independent of the
// heap's layout.
func (a key) less(b key) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// payload is what a queued event runs. Exactly one of fn, h (with arg)
// or tm is set.
type payload struct {
	fn  func()
	h   Handler
	arg any
	tm  *Timer
}

// Simulator is a discrete-event scheduler. The zero value is not usable;
// construct with New.
type Simulator struct {
	now    Time
	heap   []key     // binary min-heap ordered by (at, seq)
	slab   []payload // payloads of queued events, indexed by key slot
	free   []int32   // free slab slots
	seq    uint64
	rng    *rand.Rand
	nsteps uint64
	timers []*Timer // Timer freelist (NewTimer / Release)
}

// New returns a Simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Steps returns the number of events executed so far. It is useful for
// reporting simulator throughput in benchmarks.
func (s *Simulator) Steps() uint64 { return s.nsteps }

// NewTimer returns an idle rearmable timer that runs fn when it fires;
// arm it with Reset. The timer comes from the simulator's freelist when
// one is available; a recycled timer is indistinguishable from a fresh
// one.
func (s *Simulator) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil function")
	}
	if n := len(s.timers); n > 0 {
		t := s.timers[n-1]
		s.timers = s.timers[:n-1]
		*t = Timer{s: s, fn: fn, index: -1}
		return t
	}
	return &Timer{s: s, fn: fn, index: -1}
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it is always a bug in the caller. For an event that must be
// cancelled or rearmed later, use NewTimer instead.
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	s.push(key{at: t, seq: s.seq, slot: s.alloc(payload{fn: fn})})
}

// After schedules fn to run d nanoseconds from now.
func (s *Simulator) After(d Time, fn func()) {
	s.At(s.now+d, fn)
}

// Post schedules h.OnEvent(arg) at absolute time t. This is the
// allocation-free path used for packet-hop events: the handler interface
// and the (pointer-sized) argument are stored by value in the payload
// slab, so the per-hop cost is one heap insert and nothing for the
// garbage collector.
func (s *Simulator) Post(t Time, h Handler, arg any) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	s.push(key{at: t, seq: s.seq, slot: s.alloc(payload{h: h, arg: arg})})
}

// RunUntil executes events in timestamp order until the event queue is
// exhausted or the next event is later than end. The clock is left at the
// time of the last executed event, or at end if no event at or before end
// remains.
func (s *Simulator) RunUntil(end Time) {
	for len(s.heap) > 0 && s.heap[0].at <= end {
		s.step()
	}
	if s.now < end {
		s.now = end
	}
}

// Run executes events until the queue empties.
func (s *Simulator) Run() {
	for len(s.heap) > 0 {
		s.step()
	}
}

// step pops the earliest event and dispatches it. The payload is copied
// out and its slot freed first, so the callback may schedule into the
// same slot and a timer may rearm itself.
func (s *Simulator) step() {
	k := s.pop()
	s.now = k.at
	slot := k.slot
	if slot < 0 {
		slot = ^slot
	}
	p := s.slab[slot]
	s.freeSlot(slot)
	switch {
	case p.tm != nil:
		p.tm.index = -1
		p.tm.fn()
	case p.h != nil:
		p.h.OnEvent(p.arg)
	default:
		p.fn()
	}
	s.nsteps++
}

// Pending returns the number of events in the queue. Cancelled events are
// removed eagerly, so every pending event is live.
func (s *Simulator) Pending() int { return len(s.heap) }

// --- payload slab ---

// alloc stores p in a free slab slot and returns the slot.
func (s *Simulator) alloc(p payload) int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.slab[i] = p
		return i
	}
	s.slab = append(s.slab, p)
	return int32(len(s.slab) - 1)
}

// freeSlot zeroes slot, dropping its references, and returns it to the
// free list.
func (s *Simulator) freeSlot(slot int32) {
	s.slab[slot] = payload{}
	s.free = append(s.free, slot)
}

// --- key heap: binary min-heap over []key ordered by (at, seq).
// Implemented directly (not via container/heap) so keys stay by value and
// pushes never box through an interface. Every sift carries the moving
// key in hand and writes each displaced key once into the hole.

// set writes k at heap position i, keeping a timer's index current.
func (s *Simulator) set(i int, k key) {
	s.heap[i] = k
	if k.slot < 0 {
		s.slab[^k.slot].tm.index = i
	}
}

// up places k into the hole at i, moving it toward the root.
func (s *Simulator) up(i int, k key) {
	h := s.heap
	for i > 0 {
		p := (i - 1) >> 1
		if !k.less(h[p]) {
			break
		}
		s.set(i, h[p])
		i = p
	}
	s.set(i, k)
}

// down places k into the hole at i, moving it toward the leaves.
func (s *Simulator) down(i int, k key) {
	h := s.heap
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(k) {
			break
		}
		s.set(i, h[c])
		i = c
	}
	s.set(i, k)
}

// fix places k, the new key of the entry at i, wherever heap order puts
// it. In a valid heap it can only need to move one way.
func (s *Simulator) fix(i int, k key) {
	if i > 0 && k.less(s.heap[(i-1)>>1]) {
		s.up(i, k)
	} else {
		s.down(i, k)
	}
}

func (s *Simulator) push(k key) {
	s.heap = append(s.heap, k)
	s.up(len(s.heap)-1, k)
}

// pop removes and returns the minimum key. A timer popped here still has
// its old index; step detaches it.
func (s *Simulator) pop() key {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	s.heap = h[:n]
	if n > 0 {
		s.down(0, last)
	}
	return top
}

// remove deletes and returns the key at heap position i (a cancelled
// timer).
func (s *Simulator) remove(i int) key {
	h := s.heap
	k := h[i]
	n := len(h) - 1
	last := h[n]
	s.heap = h[:n]
	if i < n {
		s.fix(i, last)
	}
	return k
}
