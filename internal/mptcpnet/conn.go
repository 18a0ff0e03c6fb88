package mptcpnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mptcp/internal/core"
	"mptcp/internal/endpoint"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
	"mptcp/internal/trace"
)

// Config parameterises a sender.
type Config struct {
	// Alg is the coupled congestion controller; defaults to &core.MPTCP{}.
	Alg core.Algorithm
	// Sched picks the subflow for each new segment; defaults to minRTT,
	// the Linux MPTCP default.
	Sched sched.Scheduler
	// SchedOpts enables the §6 receive-buffer-blocking countermeasures
	// (opportunistic retransmission, penalization); both default off.
	SchedOpts sched.Options
	// MinRTO bounds the retransmission timer (default 200 ms).
	MinRTO time.Duration
	// Logf, if set, receives debug traces.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, records the sender's protocol events into
	// internal/trace ring buffers; construct it with trace.WallNow for
	// this wall-clock stack. nil disables tracing at zero cost.
	Tracer *trace.Tracer
}

// Sender is the transmitting side of a multipath connection. It
// implements io.WriteCloser; Write blocks when both the send buffer and
// the network are full. The protocol is the endpoint.Sender core, run
// under mu on the time since start; the Sender adds framing, payloads,
// a FIFO writer and an ACK reader per subflow, timers and the FIN.
type Sender struct {
	cfg    Config
	connID uint64
	subs   []*sendSubflow
	start  time.Time

	mu   sync.Mutex
	cond *sync.Cond
	ep   endpoint.Sender
	// segs holds the payloads of data sequences [segBase, segBase+len):
	// everything written and not yet data-acknowledged.
	segs       [][]byte
	segBase    int64
	persist    *time.Timer
	persistAt  time.Time // zero while the persist timer is stopped
	closed     bool
	finSent    bool
	finRetries int
	err        error
	done       chan struct{} // closed once the stream is fully acknowledged
	doneClosed bool

	corrupt atomic.Int64 // frames failing the checksum; bumped without mu
}

type sendSubflow struct {
	id     int
	conn   net.PacketConn
	remote net.Addr
	parent *Sender

	// sendQ feeds the subflow's single writer (writeLoop): segments hit
	// the socket in the order the core sent them, so a loss-free path
	// sees no spurious reordering.
	sendQ chan []byte
	timer *time.Timer
	rtoAt time.Time // the timer's deadline, zero while stopped
}

const (
	// defaultWindow is the flow-control edge assumed until the first ACK
	// advertises the receiver's shared-buffer window.
	defaultWindow = 64
	// maxFinRetries bounds the FIN retransmission chain when the peer
	// never acknowledges: the sender then gives up.
	maxFinRetries = 12
	// maxRTOStreak is the data-level give-up bound: when EVERY subflow's
	// RTO has backed off this many times without cumulative-ACK
	// progress, the connection is dead end to end and the sender aborts
	// with an error (the transfers-complete-or-fail invariant of the
	// chaos harness). A live subflow resets its backoff on every ACK, so
	// chaos on other paths never trips this.
	maxRTOStreak = 8
	sendQueueCap = 512 // per-subflow writer queue depth, in segments
)

// NewSender builds a sender whose subflow i talks over conns[i] to
// remotes[i]. The caller owns the PacketConns until Close.
func NewSender(connID uint64, conns []net.PacketConn, remotes []net.Addr, cfg Config) *Sender {
	if len(conns) == 0 || len(conns) != len(remotes) {
		panic("mptcpnet: need one remote per subflow conn")
	}
	if cfg.Alg == nil {
		cfg.Alg = &core.MPTCP{}
	}
	if cfg.Sched == nil {
		cfg.Sched = sched.MinRTT{}
	}
	if cfg.MinRTO <= 0 {
		cfg.MinRTO = 200 * time.Millisecond
	}
	s := &Sender{cfg: cfg, connID: connID, start: time.Now(), done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	s.persist = stoppedTimer(s.onPersist)
	for i := range conns {
		sf := &sendSubflow{id: i, conn: conns[i], remote: remotes[i], parent: s, sendQ: make(chan []byte, sendQueueCap)}
		sf.timer = stoppedTimer(sf.onRTO)
		s.subs = append(s.subs, sf)
	}
	s.ep.Init(endpoint.Config{
		Alg: cfg.Alg, Sched: cfg.Sched, SchedOpts: cfg.SchedOpts, Subflows: len(conns),
		Window: defaultWindow, InitialCwnd: 2, MinRTO: sim.Time(cfg.MinRTO), Tracer: cfg.Tracer,
	}, (*senderOut)(s))
	s.ep.Start(0)
	for _, sf := range s.subs {
		go sf.readLoop()
		go sf.writeLoop()
	}
	return s
}

// now is the core's clock: the time since the sender was built.
func (s *Sender) now() sim.Time { return sim.Time(time.Since(s.start)) }

// Write queues p for transmission, blocking on flow control. It
// implements io.Writer over the data stream.
func (s *Sender) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("mptcpnet: write on closed sender")
	}
	n := 0
	for len(p) > 0 {
		seg := p[:min(len(p), MaxPayload)]
		// Backpressure: cap the unassigned queue — but keep the network
		// pumped before blocking, or nothing would ever drain it.
		if s.unassignedLocked() > 1024 {
			s.pumpLocked()
			for s.unassignedLocked() > 1024 && s.err == nil && !s.closed {
				s.cond.Wait()
			}
		}
		if s.err != nil {
			return n, s.err
		}
		s.segs = append(s.segs, append([]byte(nil), seg...))
		s.ep.Extend(1)
		p = p[len(seg):]
		n += len(seg)
	}
	s.pumpLocked()
	return n, nil
}

func (s *Sender) totalLocked() int64      { return s.segBase + int64(len(s.segs)) }
func (s *Sender) unassignedLocked() int64 { return s.totalLocked() - s.ep.DataNxt() }

// Close marks the end of the stream; the FIN is delivered reliably. It
// does not wait for acknowledgment — use Wait.
func (s *Sender) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.ep.Close()
	s.pumpLocked()
	return nil
}

// Wait blocks until all data (and the FIN) has been acknowledged, or the
// timeout expires.
func (s *Sender) Wait(timeout time.Duration) error {
	select {
	case <-s.done:
	case <-time.After(timeout):
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil && !s.doneClosed {
		return fmt.Errorf("mptcpnet: %d segments unacked at timeout", s.totalLocked()-s.ep.DataUna())
	}
	return s.err
}

func (s *Sender) finishedLocked() bool {
	return s.closed && s.finSent && s.ep.DataUna() >= s.totalLocked()
}

// pumpLocked runs the core's transmission pump, then settles.
func (s *Sender) pumpLocked() {
	s.ep.Pump(s.now())
	s.settleLocked()
}

// settleLocked follows every core step: it drops acknowledged payloads,
// sends the FIN once closed and fully assigned, wakes blocked writers
// and finishes a fully acknowledged stream.
func (s *Sender) settleLocked() {
	if k := min(s.ep.DataUna()-s.segBase, int64(len(s.segs))); k > 0 {
		clear(s.segs[:k])
		s.segs, s.segBase = s.segs[k:], s.segBase+k
	}
	if s.closed && !s.finSent && s.unassignedLocked() == 0 {
		s.finSent = true
		s.sendFinLocked()
	}
	s.cond.Broadcast()
	s.maybeFinishLocked()
}

// maybeFinishLocked finishes the sender once the stream is fully
// acknowledged.
func (s *Sender) maybeFinishLocked() {
	if !s.doneClosed && s.finishedLocked() {
		s.abortLocked(nil)
	}
}

// abortLocked finishes the sender, recording err (nil on success): done
// closes, releasing the writers and ending the FIN chain, and the core
// and every timer stop (a timer mid-fire is gated on doneClosed).
func (s *Sender) abortLocked(err error) {
	if s.err == nil {
		s.err = err
	}
	if !s.doneClosed {
		s.doneClosed = true
		close(s.done)
	}
	s.ep.Stop()
	for _, sf := range s.subs {
		sf.rtoAt = resetTimer(sf.timer, 0)
	}
	s.persistAt = resetTimer(s.persist, 0)
	s.cond.Broadcast()
}

// Cwnd returns subflow i's congestion window in segments.
func (s *Sender) Cwnd(i int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ep.CC[i].Cwnd
}

// Stats is one coherent snapshot of the sender's counters. OppRetx and
// Penalties stay 0 unless Config.SchedOpts enables them.
type Stats struct {
	SegsSent    int64   // data segment transmissions (incl. retransmissions)
	SegsRetx    int64   // subflow-level retransmissions
	Reinjects   int64   // data reinjections onto other subflows after RTOs
	OppRetx     int64   // §6 opportunistic retransmissions of a blocking segment
	Penalties   int64   // §6 penalization window halvings
	Corrupt     int64   // inbound frames dropped by the checksum
	SubflowSent []int64 // segments assigned to each subflow (its sndNxt)
}

// Stats returns a snapshot of every sender counter, taken under one lock.
func (s *Sender) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Reinjects:   s.ep.Reinjects,
		OppRetx:     s.ep.OppRetx,
		Penalties:   s.ep.Penalties,
		Corrupt:     s.corrupt.Load(),
		SubflowSent: make([]int64, len(s.subs)),
	}
	for i := range s.subs {
		sf := s.ep.Subflow(i)
		st.SegsSent += sf.PktsSent
		st.SegsRetx += sf.PktsRetx
		st.SubflowSent[i] = sf.Sent()
	}
	return st
}

// senderOut is the Sender's endpoint.Out (called with mu held).
type senderOut Sender

// Send frames a data segment with its payload (empty once the data is
// acknowledged at the data level: the receiver then needs the subflow
// sequence only).
func (o *senderOut) Send(i int, seq, dataSeq int64, _ bool) {
	var payload []byte
	if k := dataSeq - o.segBase; k >= 0 && k < int64(len(o.segs)) {
		payload = o.segs[k]
	}
	o.emit(i, header{Type: typeData, Seq: seq, DataSeq: dataSeq}, payload)
}

// Probe sends a zero-window probe, which the receiver answers with an
// ACK carrying the current window.
func (o *senderOut) Probe(i int) { o.emit(i, header{Type: typeProbe}, nil) }

func (o *senderOut) SetRTO(i int, d sim.Time) { o.subs[i].rtoAt = resetTimer(o.subs[i].timer, d) }
func (o *senderOut) SetPersist(d sim.Time)    { o.persistAt = resetTimer(o.persist, d) }

// emit stamps h for subflow i (connection, echo timestamp, payload
// length), frames it with payload and queues it on the subflow's writer.
func (o *senderOut) emit(i int, h header, payload []byte) (buf []byte, queued bool) {
	h.Subflow, h.ConnID, h.Plen = uint16(i), o.connID, uint16(len(payload))
	h.Echo = uint32((*Sender)(o).now() / sim.Microsecond)
	buf = make([]byte, headerSize+len(payload))
	h.marshal(buf)
	copy(buf[headerSize:], payload)
	sealFrame(buf)
	return buf, o.subs[i].queueWrite(buf)
}

// stoppedTimer returns a timer for resetTimer to arm: rearming in place
// keeps the per-ACK path free of allocations.
func stoppedTimer(fn func()) *time.Timer {
	t := time.AfterFunc(time.Hour, fn)
	t.Stop()
	return t
}

// resetTimer arms t to fire after d, or stops it when d is 0. It returns
// the new deadline (zero when stopped), taken before arming so the fire
// can never precede it.
func resetTimer(t *time.Timer, d sim.Time) time.Time {
	if d == 0 {
		t.Stop()
		return time.Time{}
	}
	at := time.Now().Add(time.Duration(d))
	t.Reset(time.Duration(d))
	return at
}

// due reports whether a timer fire is still wanted: one that raced with
// a stop or rearm finds its deadline zero or in the future.
func due(at time.Time) bool { return !at.IsZero() && !time.Now().Before(at) }

// onRTO fires subflow sf's retransmission timeout into the core, and
// gives up once every subflow has backed off maxRTOStreak times.
func (sf *sendSubflow) onRTO() {
	s := sf.parent
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.doneClosed || !due(sf.rtoAt) {
		return
	}
	sf.rtoAt = time.Time{}
	s.ep.OnRTO(sf.id)
	for i := range s.subs {
		if s.ep.Subflow(i).Backoff() < maxRTOStreak {
			s.settleLocked()
			return
		}
	}
	s.abortLocked(errors.New("mptcpnet: every subflow timed out repeatedly with no progress, giving up"))
}

func (s *Sender) onPersist() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.doneClosed || !due(s.persistAt) {
		return
	}
	s.persistAt = time.Time{}
	s.ep.OnPersist()
}

// queueWrite hands buf to the subflow's writer and reports whether it
// was queued. Called with mu held, it never blocks: behind a stalled
// socket the segment is dropped as a congested path would drop it.
func (sf *sendSubflow) queueWrite(buf []byte) bool {
	select {
	case sf.sendQ <- buf:
		return true
	default:
		if logf := sf.parent.cfg.Logf; logf != nil {
			logf("sf%d writer backlogged, dropping segment", sf.id)
		}
		return false
	}
}

// writeLoop is the subflow's single writer. Once the connection is done
// it flushes the queue and exits: the final FIN may be queued in the
// critical section that closes done.
func (sf *sendSubflow) writeLoop() {
	for {
		select {
		case buf := <-sf.sendQ:
			sf.conn.WriteTo(buf, sf.remote) //nolint:errcheck // lossy path semantics
		case <-sf.parent.done:
			for {
				select {
				case buf := <-sf.sendQ:
					sf.conn.WriteTo(buf, sf.remote) //nolint:errcheck
				default:
					return
				}
			}
		}
	}
}

// sendFinLocked broadcasts the FIN on every subflow and arms the retry
// chain. The FIN is the one segment the data machinery cannot recover,
// and the chain stops once the data is acknowledged, so it rides every
// path: EOF is as reliable as the best live one.
func (s *Sender) sendFinLocked() {
	for i, sf := range s.subs {
		if buf, ok := (*senderOut)(s).emit(i, header{Type: typeFin, Aux: s.totalLocked()}, nil); !ok {
			// A backlogged writer must not drop the FIN, which has no
			// ordering constraint: at most one bypass per subflow per try.
			go sf.conn.WriteTo(buf, sf.remote) //nolint:errcheck // lossy path semantics
		}
	}
	// Retransmit with backoff until the data is acked or the budget is
	// spent.
	delay := s.cfg.MinRTO << uint(s.finRetries)
	if delay > time.Duration(endpoint.MaxRTO) || delay <= 0 {
		delay = time.Duration(endpoint.MaxRTO)
	}
	s.finRetries++
	time.AfterFunc(delay, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.doneClosed || s.ep.DataUna() >= s.totalLocked() {
			s.maybeFinishLocked()
			return
		}
		if s.finRetries > maxFinRetries {
			s.abortLocked(errors.New("mptcpnet: FIN unacknowledged after retries, giving up"))
			return
		}
		s.sendFinLocked()
	})
}

// readLoop consumes ACKs for one subflow.
func (sf *sendSubflow) readLoop() {
	s := sf.parent
	buf := make([]byte, 2048)
	// A closed socket can deliver no ACK again: abort an unfinished
	// sender rather than leak its goroutines and timers.
	defer func() {
		s.mu.Lock()
		if !s.doneClosed {
			s.abortLocked(fmt.Errorf("mptcpnet: subflow %d socket closed", sf.id))
		}
		s.mu.Unlock()
	}()
	for {
		n, _, err := sf.conn.ReadFrom(buf)
		if err != nil {
			return // socket closed
		}
		var h header
		if err := h.unmarshal(buf[:n]); err != nil {
			if errors.Is(err, errBadFrame) {
				s.corrupt.Add(1)
			}
			continue
		}
		if h.ConnID == s.connID && h.Type == typeAck {
			s.handleAck(sf.id, &h)
		}
	}
}

// handleAck feeds one ACK to the core. The echoed timestamp is 32-bit
// microseconds; the subtraction recovers the transmission's time on the
// core's clock across wraparound.
func (s *Sender) handleAck(i int, h *header) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	a := endpoint.Ack{
		Seq: h.Seq, DataAck: h.DataSeq, Window: int64(h.Window), Sack: -1,
		Echo: now - sim.Time(uint32(now/sim.Microsecond)-h.Echo)*sim.Microsecond,
	}
	if h.Flags&flagSack != 0 {
		a.Sack = h.Aux
	}
	s.ep.OnAck(i, now, a)
	s.settleLocked()
}

var _ io.WriteCloser = (*Sender)(nil)
