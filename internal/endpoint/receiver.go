package endpoint

// RecvCounters count segments refused by a full shared buffer
// (Overflow) and segments carrying already-received data, which consume
// no buffer (DupData).
type RecvCounters struct{ Overflow, DupData int64 }

// Receiver is the receive side of a connection: per-subflow cumulative
// acknowledgment for loss detection, connection-level reassembly over
// data sequence numbers, and one shared receive buffer whose window is
// advertised relative to the data-level cumulative ACK, the design §6
// arrives at after eliminating per-subflow buffers (deadlock) and
// inferred data ACKs (spurious drops).
type Receiver struct {
	RecvCounters
	subRcvNxt    []int64
	subOOO       []map[int64]struct{}
	subDelivered []int64
	dataRcvNxt   int64
	dataOOO      map[int64]struct{}
	bufCap       int64
	readPt       int64 // data consumed by the application
	stalled      bool  // the application stopped reading
}

// Init (re)builds r for nsub subflows and a bufCap-segment shared
// buffer, keeping its maps when the subflow count is unchanged.
func (r *Receiver) Init(nsub int, bufCap int64) {
	if len(r.subOOO) != nsub {
		r.subRcvNxt, r.subDelivered, r.dataOOO = make([]int64, nsub), make([]int64, nsub), map[int64]struct{}{}
		r.subOOO = make([]map[int64]struct{}, nsub)
		for i := range r.subOOO {
			r.subOOO[i] = map[int64]struct{}{}
		}
	}
	for _, m := range r.subOOO {
		clear(m)
	}
	clear(r.dataOOO)
	clear(r.subRcvNxt)
	clear(r.subDelivered)
	*r = Receiver{subRcvNxt: r.subRcvNxt, subOOO: r.subOOO, subDelivered: r.subDelivered, dataOOO: r.dataOOO, bufCap: bufCap}
}

// Data admits subflow sf's segment seq carrying data sequence dataSeq.
// ok is false when the shared buffer refused it, like a network loss (no
// ACK; a correct sender never triggers this). sack is the subflow
// sequence to SACK, a new out-of-order arrival (duplicates carry no new
// information, RFC 6675), or -1. fresh reports new data.
func (r *Receiver) Data(sf int, seq, dataSeq int64) (sack int64, fresh, ok bool) {
	if dataSeq >= r.readPt+r.bufCap {
		r.Overflow++
		return -1, false, false
	}
	sack = -1
	if seq == r.subRcvNxt[sf] {
		r.subRcvNxt[sf] = drain(r.subOOO[sf], seq+1)
	} else if seq > r.subRcvNxt[sf] {
		if _, dup := r.subOOO[sf][seq]; !dup {
			sack = seq
		}
		r.subOOO[sf][seq] = struct{}{}
	}
	if _, held := r.dataOOO[dataSeq]; held || dataSeq < r.dataRcvNxt {
		r.DupData++
		return sack, false, true
	}
	r.subDelivered[sf]++
	if dataSeq == r.dataRcvNxt {
		r.dataRcvNxt = drain(r.dataOOO, dataSeq+1)
	} else {
		r.dataOOO[dataSeq] = struct{}{}
	}
	if !r.stalled {
		r.readPt = r.dataRcvNxt // the application reads instantly
	}
	return sack, true, true
}

// drain removes the run of consecutive sequences starting at next from
// the out-of-order set and returns the new cumulative point.
func drain(ooo map[int64]struct{}, next int64) int64 {
	for {
		if _, ok := ooo[next]; !ok {
			return next
		}
		delete(ooo, next)
		next++
	}
}

// Ack returns the acknowledgment for subflow sf: its cumulative ack,
// the data-level cumulative ack and the receive window.
func (r *Receiver) Ack(sf int) (seq, dataAck, window int64) {
	return r.subRcvNxt[sf], r.dataRcvNxt, r.Window()
}

// Window is the advertised receive window, relative to DataRcvNxt, the
// data-level cumulative ack; SubflowDelivered counts the distinct data
// segments that arrived via subflow i.
func (r *Receiver) Window() int64                { return max(r.readPt+r.bufCap-r.dataRcvNxt, 0) }
func (r *Receiver) DataRcvNxt() int64            { return r.dataRcvNxt }
func (r *Receiver) SubflowDelivered(i int) int64 { return r.subDelivered[i] }

// SetStalled freezes or resumes the application's reads. While stalled,
// in-order data accumulates and the window closes; resuming drains it.
func (r *Receiver) SetStalled(stalled bool) {
	r.stalled = stalled
	if !stalled {
		r.readPt = r.dataRcvNxt
	}
}
