// Package endpoint is the sans-I/O core of the §6 multipath protocol,
// one sender and one receiver state machine run by both endpoint stacks:
// internal/transport adapts it to the packet-level simulator and
// internal/mptcpnet to UDP sockets, so a fix lands once and the two
// cannot drift. The core has no clock, socket, goroutine, lock or timer:
// time comes in as a sim.Time argument (nanoseconds, the unit of
// time.Duration) and every output leaves through the adapter's Out.
//
// The sender keeps per-subflow sequence spaces with an exact SACK
// scoreboard, PRR-style fast recovery, post-RTO go-back-N repair with
// backoff, an RFC 6298 estimator fed by the echoed per-transmission
// timestamp (RFC 6298 §3, so retransmissions sample unambiguously),
// scheduler dispatch, reinjection, the shared-buffer flow-control edge
// with its persist probe, and the receive-buffer-blocking
// countermeasures. Sequence numbers and windows count segments, as the
// paper presents them.
package endpoint

import (
	"math"

	"mptcp/internal/cc"
	"mptcp/internal/core"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
	"mptcp/internal/trace"
)

// Infinite marks an unlimited data supply (a long-lived flow).
const Infinite int64 = -1

const (
	initialRTO = 1 * sim.Second // RFC 6298 §2.1
	// MaxRTO bounds the retransmission timer (RFC 6298 §2.5 allows a
	// maximum of at least 60 seconds).
	MaxRTO          = 60 * sim.Second
	persistInterval = 200 * sim.Millisecond
	maxBackoff      = 10
)

// Out receives a Sender's outputs; the adapter turns them into packets
// and timers, and must not call back into the Sender from them.
type Out interface {
	Send(sf int, seq, dataSeq int64, retx bool) // subflow sf's segment seq, carrying dataSeq
	Probe(sf int)                               // a zero-window probe on subflow sf
	SetRTO(sf int, d sim.Time)                  // call OnRTO(sf) after d; 0 stops the timer
	SetPersist(d sim.Time)                      // call OnPersist after d; 0 stops the timer
}

// Config parameterises a Sender. Adapters apply their defaults first;
// every field but Tracer must be set.
type Config struct {
	Alg       core.Algorithm
	Sched     sched.Scheduler
	SchedOpts sched.Options
	Subflows  int
	// Total is the data supply in segments (Infinite for unlimited);
	// Extend grows it and Close makes it final.
	Total int64
	// Window is the flow-control edge assumed until the first ACK.
	Window          int64
	InitialCwnd     float64
	MinRTO          sim.Time
	DisableReinject bool
	Tracer          *trace.Tracer
}

// Ack is one acknowledgment as it arrives on a subflow.
type Ack struct {
	Seq     int64    // cumulative subflow ack
	DataAck int64    // explicit cumulative data ack (§6)
	Window  int64    // shared receive window, relative to DataAck
	Sack    int64    // subflow sequence newly held out of order, or -1
	Echo    sim.Time // the acknowledged transmission's timestamp
}

// Counters count the §6 countermeasures (0 unless SchedOpts enables
// them).
type Counters struct {
	OppRetx   int64 // opportunistic retransmissions
	Penalties int64 // penalization window halvings
}

// Sender is the sending side of a (multipath) connection.
type Sender struct {
	Counters
	Reinjects int64          // data sequences queued for reinjection after RTOs
	CC        []core.Subflow // the congestion-control algorithm's per-subflow state

	cfg     Config
	out     Out
	subs    []Subflow
	rttObs  cc.RTTObserver  // optional algorithm hooks, resolved once
	lossObs cc.LossObserver // so the per-ACK path pays no type assertion
	traceID int32

	views      []sched.View // scratch for every Pick: no per-ACK allocation
	redundant  bool
	dupNxt     []int64 // redundant scheduler: per-subflow replay frontiers
	oppRetxSeq int64   // last opportunistic retransmission: once per blocking segment

	dataNxt   int64 // next new data sequence to assign
	dataUna   int64 // cumulative data-level ack
	dataEdge  int64 // flow-control edge: highest permitted dataSeq+1
	total     int64 // data supply, or Infinite
	reinjectQ []int64
	final     bool // the supply will not grow: complete once dataUna reaches it
	started   bool
	done      bool
	// fcBlocked latches when the edge stopped assignment; while nothing
	// is in flight the persist timer then probes, so a lost window
	// update cannot deadlock the connection.
	fcBlocked bool
	persistOn bool
}

// Init (re)builds s in place. With an unchanged subflow count it keeps
// its allocations (scoreboard rings, scratch slices), so a pooled
// connection's next life allocates nothing.
func (s *Sender) Init(cfg Config, out Out) {
	n := cfg.Subflows
	subs, ccs, views, dupNxt := s.subs, s.CC, s.views, s.dupNxt
	if len(subs) != n {
		subs, ccs, views, dupNxt = make([]Subflow, n), make([]core.Subflow, n), make([]sched.View, n), nil
	}
	*s = Sender{
		CC: ccs, cfg: cfg, out: out, subs: subs, views: views,
		traceID:    cfg.Tracer.ConnID(), // nil-safe: -1 when tracing is off
		oppRetxSeq: -1, dataEdge: cfg.Window, total: cfg.Total, reinjectQ: s.reinjectQ[:0],
	}
	s.rttObs, _ = cfg.Alg.(cc.RTTObserver)
	s.lossObs, _ = cfg.Alg.(cc.LossObserver)
	if d, ok := cfg.Sched.(sched.Duplicator); ok && d.Duplicates() {
		if s.redundant, s.dupNxt = true, dupNxt; dupNxt == nil {
			s.dupNxt = make([]int64, n)
		}
		clear(s.dupNxt)
	}
	for i := range subs {
		meta := subs[i].meta
		if meta == nil {
			meta = make([]pktMeta, 256)
		}
		clear(meta)
		subs[i] = Subflow{s: s, id: i, meta: meta, mask: int64(len(meta) - 1), rto: initialRTO}
		ccs[i] = core.Subflow{Cwnd: cfg.InitialCwnd, SSThresh: math.Inf(1)}
	}
}

// Subflow returns subflow i (read-only use). Started reports whether
// Start was called, Done whether the sender completed or was stopped,
// DataNxt the next data sequence to assign, DataUna the cumulative
// data-level ack.
func (s *Sender) Subflow(i int) *Subflow { return &s.subs[i] }
func (s *Sender) Started() bool          { return s.started }
func (s *Sender) Done() bool             { return s.done }
func (s *Sender) DataNxt() int64         { return s.dataNxt }
func (s *Sender) DataUna() int64         { return s.dataUna }

// Extend adds n segments to the data supply, Close makes it final, and
// Stop ends the connection: no further output.
func (s *Sender) Extend(n int64) { s.total += n }
func (s *Sender) Close()         { s.final = true; s.complete() }
func (s *Sender) Stop()          { s.done = true }

// Start begins transmission.
func (s *Sender) Start(now sim.Time) {
	s.started = true
	s.Pump(now)
}

func (s *Sender) complete() bool {
	if s.final && s.dataUna >= s.total {
		s.done = true
	}
	return s.done
}

// OnAck processes an ACK arriving on subflow i and reports whether it
// completed the connection. A completing ACK returns before touching any
// subflow state, so the adapter may hand the connection straight to a
// callback that recycles it.
func (s *Sender) OnAck(i int, now sim.Time, a Ack) (completed bool) {
	if s.done {
		return false
	}
	s.dataUna = max(s.dataUna, a.DataAck)
	if e := a.DataAck + a.Window; e > s.dataEdge { // monotone: old ACKs cannot shrink it
		s.dataEdge = e
		if s.fcBlocked {
			s.fcBlocked = false
			s.setPersist(0)
		}
	}
	if s.complete() {
		return true
	}
	// An ACK is a countable duplicate only if it carries new SACK
	// information (RFC 6675): echoes of spurious retransmissions must not
	// drive loss detection.
	sf := &s.subs[i]
	newInfo := false
	if a.Sack >= sf.sndUna && a.Sack < sf.sndNxt && !sf.slot(a.Sack).sacked {
		sf.slot(a.Sack).sacked = true
		newInfo = true
	}
	switch {
	case a.Seq > sf.sndUna && a.Seq <= sf.sndNxt:
		sf.onNewAck(a.Seq, now-a.Echo)
	case a.Seq == sf.sndUna && sf.Outstanding() > 0 && newInfo:
		sf.onDupAck()
	}
	s.Pump(now)
	return false
}

// OnPersist is the persist timer: while flow control blocks the sender,
// probe every subflow for the current window.
func (s *Sender) OnPersist() {
	s.persistOn = false
	if s.done || !s.fcBlocked {
		return
	}
	for i := range s.subs {
		s.out.Probe(i)
	}
	s.setPersist(persistInterval)
}

func (s *Sender) setPersist(d sim.Time) {
	s.persistOn = d > 0
	s.out.SetPersist(d)
}

// Pump drives transmission: loss-recovery repairs first (they are not
// scheduling decisions), then new data assigned by the scheduler, then,
// if the shared receive buffer blocked the sender, the §6
// countermeasures and the persist probe.
func (s *Sender) Pump(now sim.Time) {
	if !s.started || s.done {
		return
	}
	for i := range s.subs {
		s.subs[i].sendRepairs()
	}
	if s.redundant {
		s.scheduleRedundant()
	} else {
		s.schedule()
	}
	if s.fcBlocked {
		s.countermeasures(now)
		if !s.persistOn && s.idle() {
			s.setPersist(persistInterval)
		}
	}
}

// popData hands out the next data sequence to send, reinjections first;
// ok is false when the sender is application- or flow-control-limited.
func (s *Sender) popData() (dataSeq int64, ok bool) {
	for len(s.reinjectQ) > 0 {
		d := s.reinjectQ[0]
		if s.reinjectQ = s.reinjectQ[1:]; d >= s.dataUna {
			return d, true
		}
	}
	if s.total != Infinite && s.dataNxt >= s.total {
		return 0, false
	}
	if s.dataNxt >= s.dataEdge {
		s.fcBlocked = true // flow control (§6): respect the shared buffer
		return 0, false
	}
	s.dataNxt++
	return s.dataNxt - 1, true
}

func (s *Sender) fillViews() {
	for i := range s.subs {
		sf := &s.subs[i]
		s.views[i] = sched.View{Cwnd: s.CC[i].Cwnd, Inflight: sf.Outstanding(), SRTT: sf.srtt.Seconds(), Sendable: sf.sendable(), Sent: sf.sndNxt}
	}
}

// schedule assigns new data, one segment per Pick, until the scheduler
// declines or the supply runs dry. The Ctx is rebuilt per pick: a
// blocking-aware scheduler (BLEST) must see the headroom left now.
func (s *Sender) schedule() {
	s.fillViews()
	for {
		i := s.cfg.Sched.Pick(sched.Ctx{Window: s.dataEdge - s.dataNxt}, s.views)
		if i < 0 {
			return
		}
		dataSeq, ok := s.subs[i].sendNew()
		if !ok {
			return
		}
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.SchedPick(s.traceID, int32(i), dataSeq)
		}
		s.views[i].Inflight++
		s.views[i].Sent++
	}
}

// scheduleRedundant drives a duplicating scheduler: each subflow keeps a
// replay frontier (dupNxt) and, window permitting, carries every data
// sequence itself; the one furthest ahead pulls new data, the others
// replay it. Frontiers skip data below dataUna, so a lagging subflow
// replays only the unacknowledged window, like Linux's mptcp_redundant.
func (s *Sender) scheduleRedundant() {
	for progress := true; progress; {
		progress = false
		for i := range s.subs {
			sf := &s.subs[i]
			if !sf.sendable() || sf.Outstanding() >= sf.window() {
				continue
			}
			s.dupNxt[i] = max(s.dupNxt[i], s.dataUna)
			if s.dupNxt[i] < s.dataNxt {
				sf.sendMapped(s.dupNxt[i])
				s.dupNxt[i]++
				progress = true
			} else if dataSeq, ok := sf.sendNew(); ok {
				s.dupNxt[i] = max(s.dupNxt[i], dataSeq+1)
				progress = true
			}
		}
	}
}

// countermeasures applies the §6 remedies when the shared buffer blocked
// the sender on dataUna, typically parked on a slow subflow: re-send it
// on the fastest other subflow with window space (once per blocking
// segment), and halve the blocking subflow's window (at most once per
// its RTT) so it stops re-filling the buffer.
func (s *Sender) countermeasures(now sim.Time) {
	opts := s.cfg.SchedOpts
	if !opts.Any() || len(s.subs) < 2 {
		return
	}
	// Gate the blocker scan: every ACK re-enters here while the sender
	// stays blocked, and once the retransmission is spent and every
	// penalty backoff still runs there is nothing to do.
	needOpp := opts.OpportunisticRetx && s.oppRetxSeq != s.dataUna
	needPen := false
	for i := range s.subs {
		needPen = needPen || opts.Penalize && now >= s.subs[i].nextPenalty
	}
	blocker := -1
	if needOpp || needPen {
		blocker = s.findBlocker()
	}
	if blocker < 0 {
		return
	}
	if sf := &s.subs[blocker]; opts.Penalize && now >= sf.nextPenalty {
		if cw := &s.CC[blocker]; cw.Cwnd > 1 {
			cw.Cwnd = max(cw.Cwnd/2, 1)
			cw.SSThresh = cw.Cwnd
			s.Penalties++
			s.cfg.Tracer.Penalty(s.traceID, int32(blocker), cw.Cwnd)
		}
		d := sf.srtt // rate limit: once per smoothed RTT, MinRTO unmeasured
		if d <= 0 {
			d = s.cfg.MinRTO
		}
		sf.nextPenalty = now + d
	}
	if needOpp {
		s.fillViews()
		if best := sched.PickMinRTT(s.views, blocker); best >= 0 {
			s.subs[best].sendMapped(s.dataUna)
			s.oppRetxSeq = s.dataUna
			s.OppRetx++
			s.cfg.Tracer.OppRetx(s.traceID, int32(best), s.dataUna)
		}
	}
}

// findBlocker returns the subflow holding the undelivered segment the
// receive window is stuck on (dataSeq == dataUna, outstanding, not
// SACKed), or -1.
func (s *Sender) findBlocker() int {
	for i := range s.subs {
		sf := &s.subs[i]
		for seq := sf.sndUna; seq < sf.sndNxt; seq++ {
			if m := sf.slot(seq); !m.sacked && m.dataSeq == s.dataUna {
				return i
			}
		}
	}
	return -1
}

// idle reports whether nothing is in flight, so no ACK will arrive to
// reopen a closed window.
func (s *Sender) idle() bool {
	for i := range s.subs {
		if s.subs[i].Outstanding() > 0 {
			return false
		}
	}
	return true
}
