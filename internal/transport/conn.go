// Package transport runs the TCP and MPTCP endpoints over the
// packet-level network of internal/netsim. A Conn has one or more
// subflows, each taking its own route; single-path TCP is simply a Conn
// with one subflow driven by core.Regular, exactly how the paper treats
// it. The protocol (§6's separate subflow and data sequence spaces,
// explicit data ACKs, one shared receive buffer, SACK recovery, RFC 6298
// timers, scheduling, reinjection) is internal/endpoint's, shared with
// the UDP stack internal/mptcpnet. This package is its netsim adapter:
// packets, send jitter, sim.Timers, ConnPool recycling, and the guard
// against stragglers from a pooled connection's previous life.
package transport

import (
	"fmt"
	"sync/atomic"

	"mptcp/internal/core"
	"mptcp/internal/endpoint"
	"mptcp/internal/netsim"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
	"mptcp/internal/trace"
)

// Infinite marks an unlimited data supply (a long-lived flow).
const Infinite = endpoint.Infinite

// Path is the pair of routes used by one subflow: Fwd carries data from
// sender to receiver, Rev carries ACKs back.
type Path struct {
	Fwd []*netsim.Link
	Rev []*netsim.Link
}

// Config parameterises a connection.
type Config struct {
	// Alg is the congestion-avoidance algorithm. Defaults to
	// &core.MPTCP{} for multiple paths and core.Regular{} for one.
	Alg core.Algorithm

	// Sched assigns new data segments to subflows. Defaults to
	// sched.FirstFit: fill subflows in configuration order, the paper's
	// striping. Loss-recovery transmissions never go through it.
	Sched sched.Scheduler

	// SchedOpts enables the §6 receive-buffer-blocking countermeasures
	// (opportunistic retransmission, subflow penalization); both default
	// off.
	SchedOpts sched.Options

	// Paths lists one Path per subflow; at least one is required.
	Paths []Path

	// DataPackets is the number of data packets the application wants to
	// transfer; Infinite for a long-lived flow.
	DataPackets int64

	// RecvBuf is the shared receive buffer in packets (§6). Defaults to
	// a window large enough never to bind (1<<20).
	RecvBuf int64

	// InitialCwnd is the initial congestion window in packets
	// (default 2, as in Linux of the paper's era).
	InitialCwnd float64

	// MinRTO is the lower bound on the retransmission timeout
	// (default 200 ms, Linux's RTO_MIN).
	MinRTO sim.Time

	// DisableReinject turns off data-level reinjection: after an RTO on
	// one subflow, outstanding data is normally also made available to
	// other subflows so a dead path cannot strand the stream.
	DisableReinject bool

	// SendJitter is the maximum uniform random delay added to each data
	// packet (FIFO order within a subflow is kept). It breaks the
	// drop-tail phase locking of flows with identical RTTs (Floyd &
	// Jacobson). Defaults to 100 µs; set negative to disable.
	SendJitter sim.Time

	// OnComplete, if set, is invoked once the final data packet is
	// cumulatively acknowledged (finite flows only).
	OnComplete func()

	// Tracer, when non-nil, records the connection's protocol events
	// (cwnd, RTT samples, losses, retransmissions, scheduler picks, §6
	// countermeasures) into internal/trace ring buffers. Results are
	// bit-identical with tracing on or off; nil costs nothing.
	Tracer *trace.Tracer
}

// Conn is the sender side of a (multipath) connection together with its
// receiver model. Create with NewConn, then Start.
type Conn struct {
	*endpoint.Counters // OppRetx, Penalties

	ID   int
	net  *netsim.Net
	cfg  Config
	ep   *endpoint.Sender
	subs []*Subflow
	recv *Receiver

	startedAt    sim.Time
	doneAt       sim.Time
	persistTimer *sim.Timer
}

// nextConnID is atomic because parallel worlds construct connections
// concurrently. The ID labels packets (FlowID) and String(); its
// allocation order never influences results.
var nextConnID atomic.Int64

// NewConn builds a connection and its receiver, and wires the routes.
func NewConn(nw *netsim.Net, cfg Config) *Conn {
	c := &Conn{}
	c.init(nw, cfg)
	return c
}

// init (re)constructs the connection in place. A completed connection
// is rebuilt for a new life (ConnPool) reusing its endpoint core, its
// receiver and, for an equal path count, its subflows. Routes are always
// fresh: packets of a previous life still in flight keep their old route
// intact, and the FlowID guard in the receive paths discards them.
func (c *Conn) init(nw *netsim.Net, cfg Config) {
	if len(cfg.Paths) == 0 {
		panic("transport: connection needs at least one path")
	}
	if cfg.Alg == nil {
		if len(cfg.Paths) == 1 {
			cfg.Alg = core.Regular{}
		} else {
			cfg.Alg = &core.MPTCP{}
		}
	}
	if cfg.RecvBuf <= 0 {
		cfg.RecvBuf = 1 << 20
	}
	if cfg.InitialCwnd <= 0 {
		cfg.InitialCwnd = 2
	}
	if cfg.MinRTO <= 0 {
		cfg.MinRTO = 200 * sim.Millisecond
	}
	if cfg.DataPackets == 0 {
		cfg.DataPackets = Infinite
	}
	switch {
	case cfg.SendJitter == 0:
		cfg.SendJitter = 100 * sim.Microsecond
	case cfg.SendJitter < 0:
		cfg.SendJitter = 0
	}
	if cfg.Sched == nil {
		cfg.Sched = sched.FirstFit{}
	}
	n := len(cfg.Paths)
	ep, subs, recv := c.ep, c.subs, c.recv
	if ep == nil {
		ep, recv = new(endpoint.Sender), new(Receiver)
	}
	*c = Conn{ID: int(nextConnID.Add(1)), net: nw, cfg: cfg, ep: ep, recv: recv, Counters: &ep.Counters}
	c.persistTimer = nw.Sim.NewTimer(ep.OnPersist)
	ep.Init(endpoint.Config{
		Alg: cfg.Alg, Sched: cfg.Sched, SchedOpts: cfg.SchedOpts, Subflows: n,
		Total: cfg.DataPackets, Window: cfg.RecvBuf, InitialCwnd: cfg.InitialCwnd,
		MinRTO: cfg.MinRTO, DisableReinject: cfg.DisableReinject, Tracer: cfg.Tracer,
	}, (*connOut)(c))
	if cfg.DataPackets != Infinite {
		ep.Close() // a finite flow's supply is final from the start
	}
	recv.init(c, n)
	if len(subs) != n {
		subs = make([]*Subflow, n)
		for i := range subs {
			subs[i] = &Subflow{id: i}
		}
	}
	c.subs = subs
	for i, p := range cfg.Paths {
		sf := subs[i]
		*sf = Subflow{SubflowCounters: &ep.Subflow(i).SubflowCounters, conn: c, id: i}
		sf.rtoTimer = nw.Sim.NewTimer(sf.onRTO)
		sf.fwd = netsim.NewRoute(recv, p.Fwd...)
		recv.rev[i] = netsim.NewRoute(sf, p.Rev...)
	}
}

// Start begins transmission at the current simulated time.
func (c *Conn) Start() {
	if c.ep.Started() {
		return
	}
	c.startedAt = c.net.Sim.Now()
	c.ep.Start(c.startedAt)
}

// Receiver returns the connection's receiver model.
func (c *Conn) Receiver() *Receiver { return c.recv }

// Subflows returns the sender-side subflows (read-only use).
func (c *Conn) Subflows() []*Subflow { return c.subs }

// Alg returns the congestion control algorithm driving the connection.
func (c *Conn) Alg() core.Algorithm { return c.cfg.Alg }

// Done reports whether a finite flow has been fully acknowledged.
func (c *Conn) Done() bool { return c.ep.Done() }

// Stop terminates the connection immediately: no more transmissions, all
// timers cancelled (§2.4's departing flow, completed server transfers).
func (c *Conn) Stop() {
	if c.ep.Done() {
		return
	}
	c.ep.Stop()
	c.finish()
}

// finish records completion and returns the timers to the simulator's
// freelist, so connection churn leaves no timer garbage. The core is
// done by now and never touches a released timer.
func (c *Conn) finish() {
	c.doneAt = c.net.Sim.Now()
	c.persistTimer.Release()
	for _, sf := range c.subs {
		sf.rtoTimer.Release()
	}
}

// StartedAt returns when Start was called.
func (c *Conn) StartedAt() sim.Time { return c.startedAt }

// CompletedAt returns when the flow finished (finite flows).
func (c *Conn) CompletedAt() sim.Time { return c.doneAt }

// Delivered returns the data packets delivered in order to the receiver.
func (c *Conn) Delivered() int64 { return c.recv.ep.DataRcvNxt() }

// SubflowDelivered returns the distinct data packets via subflow i.
func (c *Conn) SubflowDelivered(i int) int64 { return c.recv.ep.SubflowDelivered(i) }

// Cwnd returns subflow i's congestion window in packets.
func (c *Conn) Cwnd(i int) float64 { return c.ep.CC[i].Cwnd }

// SRTT returns subflow i's smoothed RTT estimate.
func (c *Conn) SRTT(i int) sim.Time { return c.ep.Subflow(i).SRTT() }

func (c *Conn) String() string {
	return fmt.Sprintf("conn%d[%s,%d subflows]", c.ID, c.cfg.Alg.Name(), len(c.subs))
}

// Subflow is the netsim side of one sender subflow. It implements
// netsim.Endpoint to consume ACKs arriving on its reverse route.
type Subflow struct {
	*endpoint.SubflowCounters // PktsSent, PktsRetx, RTOs, FastRetx
	conn                      *Conn
	id                        int
	fwd                       *netsim.Route
	rtoTimer                  *sim.Timer
	nextSend                  sim.Time // FIFO transmission under send jitter
}

func (sf *Subflow) onRTO() { sf.conn.ep.OnRTO(sf.id) }

// Receive consumes an ACK delivered by the network (netsim.Endpoint).
func (sf *Subflow) Receive(pkt *netsim.Packet) {
	c := sf.conn
	if pkt.FlowID != c.ID {
		// A straggler from a previous life of a pooled connection: its
		// sequence numbers belong to the finished flow.
		c.net.FreePacket(pkt)
		return
	}
	a := endpoint.Ack{Seq: pkt.Ack, DataAck: pkt.DataAck, Window: pkt.RcvWnd, Sack: -1, Echo: pkt.EchoTS}
	if pkt.HasSack {
		a.Sack = pkt.SackSeq
	}
	c.net.FreePacket(pkt)
	// OnComplete runs last: a pooled connection's callback may Put and
	// re-Get this very Conn, and nothing of the old life may follow.
	if c.ep.OnAck(sf.id, c.net.Sim.Now(), a) {
		c.finish()
		if c.cfg.OnComplete != nil {
			c.cfg.OnComplete()
		}
	}
}

// Receiver is the netsim side of a connection's receiver: it feeds data
// packets to the endpoint receiver core and acknowledges every admitted
// packet at once (subflow and data acks, window, echoed timestamp and,
// for a new out-of-order arrival, its SACK).
type Receiver struct {
	*endpoint.RecvCounters // Overflow, DupData
	ep                     endpoint.Receiver
	conn                   *Conn
	rev                    []*netsim.Route // per-subflow reverse routes
}

func (r *Receiver) init(c *Conn, nsub int) {
	r.ep.Init(nsub, c.cfg.RecvBuf)
	r.RecvCounters, r.conn = &r.ep.RecvCounters, c
	if len(r.rev) != nsub {
		r.rev = make([]*netsim.Route, nsub)
	}
}

// SetAppStalled freezes or resumes the receiving application's reads.
// While stalled, the shared buffer fills and the window closes; resuming
// drains it and sends a window update on every subflow, as TCP does.
func (r *Receiver) SetAppStalled(stalled bool) {
	r.ep.SetStalled(stalled)
	if !stalled {
		for i := range r.rev {
			r.sendAck(i, 0, -1)
		}
	}
}

// DataRcvNxt returns the connection-level cumulative data received, and
// Window the advertised receive window in packets relative to it.
func (r *Receiver) DataRcvNxt() int64 { return r.ep.DataRcvNxt() }
func (r *Receiver) Window() int64     { return r.ep.Window() }

// Receive consumes a data packet (netsim.Endpoint).
func (r *Receiver) Receive(pkt *netsim.Packet) {
	nw := r.conn.net
	if pkt.FlowID != r.conn.ID {
		// Straggler from a previous life of a pooled connection (see
		// Subflow.Receive): drop without acknowledging.
		nw.FreePacket(pkt)
		return
	}
	sf, seq, dataSeq, sentAt, probe := pkt.SubflowID, pkt.Seq, pkt.DataSeq, pkt.SentAt, pkt.IsProbe
	nw.FreePacket(pkt)
	if probe { // window probe: acknowledge current state, change nothing
		r.sendAck(sf, sentAt, -1)
	} else if sack, _, ok := r.ep.Data(sf, seq, dataSeq); ok {
		r.sendAck(sf, sentAt, sack)
	}
}

func (r *Receiver) sendAck(sf int, echo sim.Time, sack int64) {
	nw := r.conn.net
	a := nw.AllocPacket()
	a.Size = netsim.AckPacketSize
	a.IsAck = true
	a.FlowID = r.conn.ID
	a.SubflowID = sf
	a.Ack, a.DataAck, a.RcvWnd = r.ep.Ack(sf)
	a.EchoTS = echo
	a.HasSack, a.SackSeq = sack >= 0, max(sack, 0)
	nw.Send(r.rev[sf], a)
}

// connOut is the endpoint.Out of a Conn, kept off Conn's method set.
type connOut Conn

// Send puts a data packet on the wire after the send jitter.
func (o *connOut) Send(i int, seq, dataSeq int64, retx bool) {
	c := (*Conn)(o)
	sf, nw := c.subs[i], c.net
	at := nw.Sim.Now()
	if j := c.cfg.SendJitter; j > 0 {
		at = max(at+sim.Time(nw.Sim.Rand().Int63n(int64(j)+1)), sf.nextSend)
		sf.nextSend = at
	}
	p := nw.AllocPacket()
	p.Size = netsim.DataPacketSize
	p.FlowID = c.ID
	p.SubflowID = i
	p.Seq = seq
	p.DataSeq = dataSeq
	p.SentAt = at
	p.Retx = retx
	nw.SendAt(at, sf.fwd, p)
}

// Probe sends a zero-window probe, which elicits an ACK with the window.
func (o *connOut) Probe(i int) {
	nw := o.net
	p := nw.AllocPacket()
	p.Size = netsim.AckPacketSize
	p.FlowID = o.ID
	p.SubflowID = i
	p.IsProbe = true
	p.SentAt = nw.Sim.Now()
	nw.Send(o.subs[i].fwd, p)
}

func (o *connOut) SetRTO(i int, d sim.Time) { setTimer(o.subs[i].rtoTimer, d) }
func (o *connOut) SetPersist(d sim.Time)    { setTimer(o.persistTimer, d) }

// setTimer rearms t in place (no dead event, no allocation), or stops it.
func setTimer(t *sim.Timer, d sim.Time) {
	if d == 0 {
		t.Stop()
	} else {
		t.Reset(d)
	}
}
