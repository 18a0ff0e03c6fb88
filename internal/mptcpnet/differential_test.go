package mptcpnet

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"mptcp/internal/core"
	"mptcp/internal/netsim"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
	"mptcp/internal/transport"
)

// xmit is one data transmission as it leaves a sender.
type xmit struct {
	seq, dataSeq int64
	retx         bool
}

// firstLoss drops the listed subflow sequence numbers on their first
// transmission only. It is safe for concurrent use.
type firstLoss struct {
	mu    sync.Mutex
	drops map[int64]bool
	seen  map[int64]bool
}

func newFirstLoss(seqs ...int64) *firstLoss {
	f := &firstLoss{drops: map[int64]bool{}, seen: map[int64]bool{}}
	for _, s := range seqs {
		f.drops[s] = true
	}
	return f
}

func (f *firstLoss) drop(seq int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	first := !f.seen[seq]
	f.seen[seq] = true
	return first && f.drops[seq]
}

const (
	diffSegs   = 300
	diffBuf    = 4096
	diffMinRTO = 30 * time.Second // no timeout fires: recovery is SACK-driven only
)

// TestDifferentialTransportVsMptcpnet runs one transfer through both
// adapters of the endpoint core: the netsim adapter (internal/transport)
// over a lossless simulated loop, and this package's socket adapter
// over an in-memory FIFO pipe, with the same scripted losses. Both must
// make the same per-segment decisions: identical ordered lists of
// (subflow seq, data seq, retransmission) data transmissions.
func TestDifferentialTransportVsMptcpnet(t *testing.T) {
	drops := []int64{5, 40, 90, 150, 151, 220, 260}
	a, b := simXmits(t, newFirstLoss(drops...)), netXmits(t, newFirstLoss(drops...))
	if len(a) < diffSegs+len(drops) {
		t.Fatalf("simulated run sent %d segments for %d packets and %d losses", len(a), diffSegs, len(drops))
	}
	if !slices.Equal(a, b) {
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				t.Fatalf("transmission %d: transport %+v, mptcpnet %+v (of %d vs %d)", i, a[i], b[i], len(a), len(b))
			}
		}
		t.Fatalf("transport sent %d segments, mptcpnet %d", len(a), len(b))
	}
}

// simXmits runs the transfer through internal/transport, recording every
// data packet offered to the forward link.
func simXmits(t *testing.T, loss *firstLoss) []xmit {
	s := sim.New(1)
	nw := netsim.NewNet(s)
	fwd := netsim.NewLink("fwd", 100, 5*sim.Millisecond, 1000)
	rev := netsim.NewLink("rev", 100, 5*sim.Millisecond, 1000)
	var log []xmit
	fwd.Drop = func(p *netsim.Packet) bool {
		if p.IsProbe {
			return false
		}
		log = append(log, xmit{p.Seq, p.DataSeq, p.Retx})
		return loss.drop(p.Seq)
	}
	c := transport.NewConn(nw, transport.Config{
		Alg: core.Regular{}, Sched: sched.FirstFit{},
		Paths:       []transport.Path{{Fwd: []*netsim.Link{fwd}, Rev: []*netsim.Link{rev}}},
		DataPackets: diffSegs, RecvBuf: diffBuf, MinRTO: sim.Time(diffMinRTO), SendJitter: -1,
	})
	c.Start()
	s.RunUntil(60 * sim.Second)
	if !c.Done() || c.Subflows()[0].RTOs != 0 {
		t.Fatalf("simulated transfer: done %v after %d RTOs, delivered %d/%d", c.Done(), c.Subflows()[0].RTOs, c.Delivered(), diffSegs)
	}
	return log
}

// netXmits runs the transfer through this package over memConns and
// returns the data frames in the order the sender's writer put them on
// the socket; a repeated subflow sequence number is a retransmission.
func netXmits(t *testing.T, loss *firstLoss) []xmit {
	snd, rcv := newMemConn("snd"), newMemConn("rcv")
	wire(snd, rcv)
	t.Cleanup(func() { snd.Close(); rcv.Close() })
	snd.drop = func(b []byte) bool {
		var h header
		return h.unmarshal(b) == nil && h.Type == typeData && loss.drop(h.Seq)
	}
	const connID = 9
	rx := NewReceiver(connID, []net.PacketConn{rcv}, diffBuf)
	tx := NewSender(connID, []net.PacketConn{snd}, []net.Addr{memAddr("rcv")}, Config{
		Alg: core.Regular{}, Sched: sched.FirstFit{}, MinRTO: diffMinRTO,
	})
	go func() {
		tx.Write(make([]byte, diffSegs*MaxPayload)) //nolint:errcheck
		tx.Close()
	}()
	if got := drainEOF(t, rx); got != diffSegs*MaxPayload {
		t.Fatalf("received %d bytes, want %d", got, diffSegs*MaxPayload)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	tx.mu.Lock()
	rtos := tx.ep.Subflow(0).RTOs
	tx.mu.Unlock()
	if rtos != 0 {
		t.Fatalf("socket transfer took %d RTOs", rtos)
	}
	var log []xmit
	seen := map[int64]bool{}
	for _, h := range snd.typedWrites(typeData) {
		log = append(log, xmit{h.Seq, h.DataSeq, seen[h.Seq]})
		seen[h.Seq] = true
	}
	return log
}
