package mptcpnet

// Regression tests for the RTT/ordering bugfix sweep: RTT samples from
// the echoed timestamp of a retransmission, in-subflow FIFO transmission
// order, FIN-timer termination, and writer lifecycle.
// They run over a deterministic in-memory PacketConn, not real sockets,
// so ordering assertions are exact.

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mptcp/internal/endpoint"
	"mptcp/internal/sim"
)

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// memConn is a deterministic in-memory net.PacketConn: every WriteTo is
// recorded in call order and, when wired to a peer, delivered FIFO and
// lossless unless drop, when set, refuses the datagram.
type memConn struct {
	addr memAddr
	drop func([]byte) bool

	mu     sync.Mutex
	writes [][]byte
	closed bool
	inbox  chan []byte
	peer   *memConn
}

func newMemConn(name string) *memConn {
	return &memConn{addr: memAddr(name), inbox: make(chan []byte, 4096)}
}

// wire cross-connects two memConns into a lossless FIFO pipe.
func wire(a, b *memConn) { a.peer, b.peer = b, a }

func (c *memConn) ReadFrom(p []byte) (int, net.Addr, error) {
	buf, ok := <-c.inbox
	if !ok {
		return 0, nil, net.ErrClosed
	}
	n := copy(p, buf)
	var from net.Addr = memAddr("peer")
	if c.peer != nil {
		from = c.peer.addr
	}
	return n, from, nil
}

func (c *memConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	b := append([]byte(nil), p...)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.writes = append(c.writes, b)
	c.mu.Unlock()
	if c.peer != nil && (c.drop == nil || !c.drop(b)) {
		c.peer.deliver(b)
	}
	return len(p), nil
}

func (c *memConn) deliver(b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	select {
	case c.inbox <- b:
	default: // inbox full: drop, like a saturated path
	}
}

func (c *memConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.inbox)
	}
	return nil
}

func (c *memConn) LocalAddr() net.Addr              { return c.addr }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// typedWrites returns the recorded writes of the given segment type, in
// call order.
func (c *memConn) typedWrites(typ byte) []header {
	c.mu.Lock()
	defer c.mu.Unlock()
	var hs []header
	for _, b := range c.writes {
		var h header
		if h.unmarshal(b) == nil && h.Type == typ {
			hs = append(hs, h)
		}
	}
	return hs
}

func newTestSender(t *testing.T, cfg Config) (*Sender, *memConn) {
	t.Helper()
	c := newMemConn("snd")
	t.Cleanup(func() { c.Close() })
	return NewSender(42, []net.PacketConn{c}, []net.Addr{memAddr("rcv")}, cfg), c
}

// waitWrites blocks until the writer goroutine has flushed at least n
// writes of the given type.
func waitWrites(t *testing.T, c *memConn, typ byte, n int) []header {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		hs := c.typedWrites(typ)
		if len(hs) >= n {
			return hs
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer flushed %d %d-type segments, want %d", len(hs), typ, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// RFC 6298 §3: an ACK that echoes a retransmission's timestamp samples
// the retransmission's round trip, never the time since the original
// send, which would inflate srtt and the RTO after every timeout.
func TestRetxAckSamplesRetransmissionTimestamp(t *testing.T) {
	s, c := newTestSender(t, Config{})
	if _, err := s.Write(make([]byte, MaxPayload)); err != nil { // segment 0
		t.Fatal(err)
	}
	waitWrites(t, c, typeData, 1)
	time.Sleep(300 * time.Millisecond) // the original transmission ages
	s.mu.Lock()
	s.ep.OnRTO(0) // time out now: segment 0 is retransmitted
	s.mu.Unlock()
	retx := waitWrites(t, c, typeData, 2)[1]
	if retx.Seq != 0 {
		t.Fatalf("timeout sent seq %d, want the retransmission of 0", retx.Seq)
	}
	time.Sleep(2 * time.Millisecond)
	s.handleAck(0, &header{Type: typeAck, Seq: 1, DataSeq: 1, Window: 64, Echo: retx.Echo})
	s.mu.Lock()
	srtt := s.ep.Subflow(0).SRTT()
	s.mu.Unlock()
	if srtt <= 0 || srtt >= 250*sim.Millisecond {
		t.Errorf("srtt = %v after acking a retransmission sent ~2ms earlier (the original left 300ms earlier)", srtt)
	}
}

// A wild RTT sample (here an echo half the 32-bit timestamp space old,
// about 36 minutes) must not arm a retransmission timer beyond MaxRTO.
func TestRTOClampedToMax(t *testing.T) {
	s, c := newTestSender(t, Config{})
	if _, err := s.Write(make([]byte, 2*MaxPayload)); err != nil { // segments 0 and 1
		t.Fatal(err)
	}
	waitWrites(t, c, typeData, 2)
	s.mu.Lock()
	echo := uint32(s.now()/sim.Microsecond) + 1<<31
	s.mu.Unlock()
	s.handleAck(0, &header{Type: typeAck, Seq: 1, DataSeq: 1, Window: 64, Echo: echo})
	s.mu.Lock()
	srtt, left := s.ep.Subflow(0).SRTT(), time.Until(s.subs[0].rtoAt)
	s.mu.Unlock()
	if srtt < endpoint.MaxRTO {
		t.Fatalf("srtt = %v, want the ~36 min sample to have been taken", srtt)
	}
	if left <= 0 || left > time.Duration(endpoint.MaxRTO) {
		t.Errorf("RTO armed %v ahead after a %v sample, want clamp at %v", left, srtt, endpoint.MaxRTO)
	}
}

// In-subflow transmissions must hit the socket in sequence order: the
// per-subflow writer goroutine serialises what the old one-goroutine-per-
// segment design left to scheduler luck.
func TestInSubflowSendOrderFIFO(t *testing.T) {
	s, c := newTestSender(t, Config{})
	const segs = 48 // below the 64-segment default flow-control edge
	s.mu.Lock()
	s.ep.CC[0].Cwnd = segs // window never binds
	s.mu.Unlock()
	if _, err := s.Write(make([]byte, segs*MaxPayload)); err != nil {
		t.Fatal(err)
	}
	hs := waitWrites(t, c, typeData, segs)
	for i, h := range hs[:segs] {
		if h.Seq != int64(i) {
			t.Fatalf("socket write %d carries seq %d: transmissions reordered", i, h.Seq)
		}
	}
}

// memPipe builds a sender/receiver pair over the in-memory transport.
func memPipe(t *testing.T, cfg Config) (*Sender, *Receiver, *memConn) {
	t.Helper()
	snd, rcv := newMemConn("snd"), newMemConn("rcv")
	wire(snd, rcv)
	t.Cleanup(func() { snd.Close(); rcv.Close() })
	const connID = 7
	rx := NewReceiver(connID, []net.PacketConn{rcv}, 256)
	tx := NewSender(connID, []net.PacketConn{snd}, []net.Addr{memAddr("rcv")}, cfg)
	return tx, rx, snd
}

// drainEOF reads rx to EOF and reports the byte count.
func drainEOF(t *testing.T, rx *Receiver) int {
	t.Helper()
	got := 0
	buf := make([]byte, 32<<10)
	for {
		n, err := rx.Read(buf)
		got += n
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
}

// On a loss-free FIFO pipe there is nothing to recover: any fast
// retransmit would be manufactured by send-side reordering.
func TestNoSpuriousRetxOnCleanPipe(t *testing.T) {
	tx, rx, _ := memPipe(t, Config{})
	const size = 512 << 10
	go func() {
		tx.Write(make([]byte, size)) //nolint:errcheck
		tx.Close()
	}()
	if got := drainEOF(t, rx); got != size {
		t.Fatalf("received %d bytes, want %d", got, size)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := tx.Stats(); st.SegsRetx != 0 {
		t.Errorf("loss-free pipe saw %d retransmissions, want 0", st.SegsRetx)
	}
}

// Once Wait returns, the FIN retransmission chain must terminate: done is
// closed and no further FIN hits the socket.
func TestFinTimerStopsAfterWait(t *testing.T) {
	cfg := Config{MinRTO: 20 * time.Millisecond}
	tx, rx, snd := memPipe(t, cfg)
	go func() {
		tx.Write(make([]byte, 8<<10)) //nolint:errcheck
		tx.Close()
	}()
	if got := drainEOF(t, rx); got != 8<<10 {
		t.Fatalf("received %d bytes, want %d", got, 8<<10)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tx.done:
	default:
		t.Fatal("done not closed after Wait succeeded")
	}
	fins := len(snd.typedWrites(typeFin))
	time.Sleep(8 * cfg.MinRTO) // several would-be retransmit intervals
	if later := len(snd.typedWrites(typeFin)); later != fins {
		t.Errorf("FIN count grew from %d to %d after completion: timer chain leaked", fins, later)
	}
}

// Closing a subflow socket under an unfinished sender must abort it:
// done closes (releasing the writer goroutine, FIN chain and RTO
// timers) and the error surfaces, instead of leaking a parked writer per
// abandoned sender.
func TestSocketCloseAbortsSender(t *testing.T) {
	s, c := newTestSender(t, Config{})
	if _, err := s.Write(make([]byte, MaxPayload)); err != nil { // unacked data in flight
		t.Fatal(err)
	}
	c.Close()
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		t.Fatal("done not closed after the subflow socket was closed")
	}
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	if err == nil {
		t.Error("socket-close abort should record an error")
	}
}

// With the peer unreachable the FIN chain must not reschedule forever:
// the retry budget aborts the sender instead of leaking timers.
func TestFinChainGivesUpWithoutPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second backoff wait")
	}
	s, _ := newTestSender(t, Config{MinRTO: time.Millisecond})
	s.mu.Lock()
	s.ep.CC[0].Cwnd = 8 // let the data and the FIN leave despite no ACKs
	s.mu.Unlock()
	if _, err := s.Write(make([]byte, 2*MaxPayload)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // sends the FIN; no peer will ever ack
		t.Fatal(err)
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		t.Fatal("FIN chain still running: retry budget did not trip")
	}
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	if err == nil {
		t.Error("giving up should record an error")
	}
}
