package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mptcp/internal/cc"
	"mptcp/internal/core"
	"mptcp/internal/sched"
)

// kind names one layer boundary the traced run wraps from outside.
type kind int

const (
	kRun      kind = iota // a RunUntil (or Sharded.Run) slice: the root of every sim span
	kSpawn                // the workload.Spawner call: connection get + Start
	kDone                 // the workload's done callback
	kConnGet              // NewConn / ConnPool.Get
	kIncrease             // cc.Algorithm.Increase
	kDecrease             // cc.Algorithm.Decrease
	kRTTObs               // cc.RTTObserver.OnRTTSample
	kLossObs              // cc.LossObserver.OnLoss
	kPick                 // sched.Scheduler.Pick
	kTopo                 // a topology constructor
	kWrite                // mptcpnet Sender.Write
	kRead                 // mptcpnet Receiver.Read
	kWait                 // mptcpnet Sender.Wait
	nKinds
)

var kindName = [nKinds]string{
	"sim.run", "workload.spawn", "workload.done", "transport.conn_get",
	"cc.increase", "cc.decrease", "cc.rtt_sample", "cc.loss",
	"sched.pick", "topo.build", "mptcpnet.write", "mptcpnet.read", "mptcpnet.wait",
}

// sampled marks the per-packet boundaries. Timing every call would cost
// more than the calls themselves, so one call in sampleEvery is timed
// and the others are only counted; totals are scaled up by the ratio.
var sampled = [nKinds]bool{kIncrease: true, kDecrease: true, kRTTObs: true, kLossObs: true, kPick: true}

const (
	sampleEvery = 8   // power of two
	maxSpans    = 1e5 // span records kept for the span file; aggregates cover every call
)

// agg accumulates one kind's calls. For sampled kinds dur and self hold
// the scaled estimate.
type agg struct {
	calls, timed int64
	dur, self    float64 // ns
}

type frame struct {
	k     kind
	id    int64
	start int64   // ns since the tracer's epoch
	child float64 // ns covered by child spans (scaled for sampled children)
}

type spanRec struct {
	k               kind
	id, parent, run int64
	start, end      int64
}

// tracer records spans at the layer boundaries of one single-threaded
// world. Spans nest on a stack: a span's self time is its duration
// minus the time its children cover. Span records stay in memory and
// are written out by flush when the run ends.
type tracer struct {
	epoch  time.Time
	floor  float64 // ns an empty timed span measures; subtracted from sampled spans
	run    int64   // episode id stamped on each span
	nextID int64
	stack  []frame
	agg    [nKinds]agg
	spans  []spanRec
	// nones counts Pick calls that returned -1.
	nones int64
	// mu guards record, the one method called from several goroutines.
	mu sync.Mutex
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.floor = t.calibrate()
	return t
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// calibrate measures the median duration of an empty timed span: the
// clock-read cost that lands inside every sampled measurement.
func (t *tracer) calibrate() float64 {
	xs := make([]float64, 4001)
	for i := range xs {
		a := t.now()
		xs[i] = float64(t.now() - a)
	}
	return median(xs)
}

// begin opens a span of kind k; a nil tracer records nothing.
func (t *tracer) begin(k kind) {
	if t == nil {
		return
	}
	t.agg[k].calls++
	t.nextID++
	t.stack = append(t.stack, frame{k: k, id: t.nextID, start: t.now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	end := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := float64(end - f.start)
	a := &t.agg[f.k]
	a.timed++
	a.dur += d
	a.self += d - f.child
	var parent int64
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
		parent = t.stack[n-1].id
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, spanRec{k: f.k, id: f.id, parent: parent, run: t.run, start: f.start, end: end})
	}
}

// record closes a root span of kind k begun at start. Unlike begin and
// end it is safe for concurrent use: the loopback stack's spans come
// from its writer, reader and main goroutines at once.
func (t *tracer) record(k kind, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	d := float64(end - start)
	a := &t.agg[k]
	a.calls++
	a.timed++
	a.dur += d
	a.self += d
	t.nextID++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, spanRec{k: k, id: t.nextID, run: t.run, start: start, end: end})
	}
}

// tick counts one call of a sampled kind and reports whether to time it.
func (t *tracer) tick(k kind) bool {
	t.agg[k].calls++
	return t.agg[k].calls&(sampleEvery-1) == 0
}

// endSampled closes a timed call of a sampled kind that began at start.
// Sampled kinds are leaves, so their self time is their duration.
func (t *tracer) endSampled(k kind, start int64) {
	end := t.now()
	d := float64(end-start) - t.floor
	if d < 0 {
		d = 0
	}
	est := d * sampleEvery
	a := &t.agg[k]
	a.timed++
	a.dur += est
	a.self += est
	var parent int64
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += est
		parent = t.stack[n-1].id
	}
	if len(t.spans) < maxSpans {
		t.nextID++
		t.spans = append(t.spans, spanRec{k: k, id: t.nextID, parent: parent, run: t.run, start: start, end: end})
	}
}

// self returns kind k's total self time in ns.
func (t *tracer) self(k kind) float64 { return t.agg[k].self }

// meanNs returns kind k's mean duration per timed call in ns (per call
// for sampled kinds, whose dur is scaled).
func (t *tracer) meanNs(k kind) float64 {
	a := t.agg[k]
	if a.timed == 0 {
		return 0
	}
	if sampled[k] {
		return a.dur / float64(a.timed*sampleEvery)
	}
	return a.dur / float64(a.timed)
}

// flush writes the span records as JSON lines to path.
func (t *tracer) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].start < t.spans[j].start })
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"run":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			kindName[s.k], s.id, s.parent, s.run, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- cc.Algorithm wrappers -------------------------------------------
//
// transport and mptcpnet probe the algorithm for cc.RTTObserver and
// cc.LossObserver once per connection, so a wrapper must implement
// exactly the hooks its inner algorithm does: one type per combination.

type ccWrap struct {
	inner core.Algorithm
	tr    *tracer
}

func (w *ccWrap) Name() string { return w.inner.Name() }

func (w *ccWrap) Increase(subs []core.Subflow, r int) float64 {
	if !w.tr.tick(kIncrease) {
		return w.inner.Increase(subs, r)
	}
	t0 := w.tr.now()
	v := w.inner.Increase(subs, r)
	w.tr.endSampled(kIncrease, t0)
	return v
}

func (w *ccWrap) Decrease(subs []core.Subflow, r int) float64 {
	if !w.tr.tick(kDecrease) {
		return w.inner.Decrease(subs, r)
	}
	t0 := w.tr.now()
	v := w.inner.Decrease(subs, r)
	w.tr.endSampled(kDecrease, t0)
	return v
}

func (w *ccWrap) onRTT(o cc.RTTObserver, subs []core.Subflow, r int, rtt float64) {
	if !w.tr.tick(kRTTObs) {
		o.OnRTTSample(subs, r, rtt)
		return
	}
	t0 := w.tr.now()
	o.OnRTTSample(subs, r, rtt)
	w.tr.endSampled(kRTTObs, t0)
}

func (w *ccWrap) onLoss(o cc.LossObserver, subs []core.Subflow, r int) {
	if !w.tr.tick(kLossObs) {
		o.OnLoss(subs, r)
		return
	}
	t0 := w.tr.now()
	o.OnLoss(subs, r)
	w.tr.endSampled(kLossObs, t0)
}

type ccWrapRTT struct {
	*ccWrap
	rtt cc.RTTObserver
}

func (w ccWrapRTT) OnRTTSample(subs []core.Subflow, r int, rtt float64) { w.onRTT(w.rtt, subs, r, rtt) }

type ccWrapLoss struct {
	*ccWrap
	loss cc.LossObserver
}

func (w ccWrapLoss) OnLoss(subs []core.Subflow, r int) { w.onLoss(w.loss, subs, r) }

type ccWrapBoth struct {
	*ccWrap
	rtt  cc.RTTObserver
	loss cc.LossObserver
}

func (w ccWrapBoth) OnRTTSample(subs []core.Subflow, r int, rtt float64) {
	w.onRTT(w.rtt, subs, r, rtt)
}
func (w ccWrapBoth) OnLoss(subs []core.Subflow, r int) { w.onLoss(w.loss, subs, r) }

// wrapAlg returns a, timed by tr; a itself when tr is nil.
func wrapAlg(a core.Algorithm, tr *tracer) core.Algorithm {
	if tr == nil {
		return a
	}
	w := &ccWrap{inner: a, tr: tr}
	rtt, hasRTT := a.(cc.RTTObserver)
	loss, hasLoss := a.(cc.LossObserver)
	switch {
	case hasRTT && hasLoss:
		return ccWrapBoth{w, rtt, loss}
	case hasRTT:
		return ccWrapRTT{w, rtt}
	case hasLoss:
		return ccWrapLoss{w, loss}
	}
	return w
}

// --- sched.Scheduler wrappers ----------------------------------------

type schedWrap struct {
	inner sched.Scheduler
	tr    *tracer
}

func (w *schedWrap) Name() string { return w.inner.Name() }

func (w *schedWrap) Pick(ctx sched.Ctx, subs []sched.View) int {
	var i int
	if !w.tr.tick(kPick) {
		i = w.inner.Pick(ctx, subs)
	} else {
		t0 := w.tr.now()
		i = w.inner.Pick(ctx, subs)
		w.tr.endSampled(kPick, t0)
	}
	if i < 0 {
		w.tr.nones++
	}
	return i
}

// schedWrapDup keeps the sched.Duplicator extension visible.
type schedWrapDup struct {
	*schedWrap
	dup sched.Duplicator
}

func (w schedWrapDup) Duplicates() bool { return w.dup.Duplicates() }

// wrapSched returns s, timed by tr; s itself when tr is nil.
func wrapSched(s sched.Scheduler, tr *tracer) sched.Scheduler {
	if tr == nil {
		return s
	}
	w := &schedWrap{inner: s, tr: tr}
	if d, ok := s.(sched.Duplicator); ok {
		return schedWrapDup{w, d}
	}
	return w
}
