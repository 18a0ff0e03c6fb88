package mptcpnet

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"mptcp/internal/endpoint"
)

// Receiver is the receiving side of a multipath connection: it runs the
// segments from every subflow socket through the endpoint.Receiver core,
// acknowledges them and serves the data stream through Read.
type Receiver struct {
	connID uint64
	conns  []net.PacketConn

	mu   sync.Mutex
	cond *sync.Cond
	ep   endpoint.Receiver
	// segs holds the payloads of fresh out-of-order data until the
	// stream reaches them; read is the next data sequence to serve.
	segs    map[int64][]byte
	read    int64
	finSeq  int64 // end-of-stream data sequence, -1 until FIN seen
	readBuf []byte
	closed  bool

	segsRecvd int64        // data segments received, including duplicates
	corrupt   atomic.Int64 // frames failing the checksum; bumped without mu
}

// NewReceiver builds a receiver listening on the given subflow sockets.
// bufSegments is the shared receive buffer size in segments (default 256
// if <= 0).
func NewReceiver(connID uint64, conns []net.PacketConn, bufSegments int64) *Receiver {
	if bufSegments <= 0 {
		bufSegments = 256
	}
	r := &Receiver{connID: connID, conns: conns, segs: make(map[int64][]byte), finSeq: -1}
	r.cond = sync.NewCond(&r.mu)
	r.ep.Init(len(conns), bufSegments)
	for i := range conns {
		go r.readLoop(i)
	}
	return r
}

// Read returns in-order stream data, blocking until some is available or
// the stream ends (io.EOF).
func (r *Receiver) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.readBuf) == 0 {
		if r.finSeq >= 0 && r.read >= r.finSeq {
			return 0, io.EOF
		}
		if r.closed {
			return 0, io.ErrClosedPipe
		}
		r.cond.Wait()
	}
	n := copy(p, r.readBuf)
	r.readBuf = r.readBuf[n:]
	return n, nil
}

// Close stops the receiver (the sockets themselves belong to the caller).
func (r *Receiver) Close() error {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	return nil
}

// Received returns the count of distinct data segments delivered so far.
func (r *Receiver) Received() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ep.DataRcvNxt()
}

// Stats returns the segments received (including duplicates), the
// duplicate-data arrivals and the segments the shared buffer refused.
func (r *Receiver) Stats() (recvd, dupData, overflow int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.segsRecvd, r.ep.DupData, r.ep.Overflow
}

// Corrupted returns the count of inbound frames failing the checksum.
func (r *Receiver) Corrupted() int64 { return r.corrupt.Load() }

// SubflowReceived returns the distinct data segments via subflow i.
func (r *Receiver) SubflowReceived(i int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ep.SubflowDelivered(i)
}

func (r *Receiver) readLoop(sub int) {
	buf := make([]byte, 2048)
	for {
		n, from, err := r.conns[sub].ReadFrom(buf)
		if err != nil {
			return
		}
		var h header
		if err := h.unmarshal(buf[:n]); err != nil {
			if errors.Is(err, errBadFrame) {
				r.corrupt.Add(1)
			}
			continue
		}
		if h.ConnID != r.connID {
			continue
		}
		switch h.Type {
		case typeData:
			r.onData(sub, &h, buf[headerSize:headerSize+int(h.Plen)], from)
		case typeFin:
			r.onFin(sub, &h, from)
		case typeProbe:
			r.ack(sub, h.Echo, -1, from)
		}
	}
}

// onData admits one data segment. payload aliases the read buffer: it is
// appended to the stream at once when in order, and copied only when it
// must wait for a hole to fill.
func (r *Receiver) onData(sub int, h *header, payload []byte, from net.Addr) {
	r.mu.Lock()
	r.segsRecvd++
	sack, fresh, ok := r.ep.Data(sub, h.Seq, h.DataSeq)
	if fresh {
		if h.DataSeq != r.read {
			r.segs[h.DataSeq] = append([]byte(nil), payload...)
		}
		for ; r.read < r.ep.DataRcvNxt(); r.read++ {
			seg := payload
			if r.read != h.DataSeq {
				seg = r.segs[r.read]
				delete(r.segs, r.read)
			}
			r.readBuf = append(r.readBuf, seg...)
		}
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	if ok {
		r.ack(sub, h.Echo, sack, from)
	}
}

func (r *Receiver) onFin(sub int, h *header, from net.Addr) {
	r.mu.Lock()
	if r.finSeq < 0 || h.Aux < r.finSeq {
		r.finSeq = h.Aux
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.ack(sub, h.Echo, -1, from)
}

// ack emits the §6 acknowledgment: subflow cumulative ack, explicit data
// ack, shared-buffer window and echoed timestamp (+ optional SACK).
func (r *Receiver) ack(sub int, echo uint32, sack int64, to net.Addr) {
	h := header{Type: typeAck, Subflow: uint16(sub), ConnID: r.connID, Echo: echo}
	r.mu.Lock()
	seq, dataAck, window := r.ep.Ack(sub)
	r.mu.Unlock()
	h.Seq, h.DataSeq, h.Window = seq, dataAck, uint32(window)
	if sack >= 0 {
		h.Flags |= flagSack
		h.Aux = sack
	}
	buf := make([]byte, headerSize)
	h.marshal(buf)
	sealFrame(buf)
	r.conns[sub].WriteTo(buf, to) //nolint:errcheck // lossy path semantics
}

var _ io.Reader = (*Receiver)(nil)
