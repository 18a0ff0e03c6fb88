package endpoint

import (
	"mptcp/internal/core"
	"mptcp/internal/sim"
)

// SubflowCounters are one subflow's transmission counters.
type SubflowCounters struct {
	PktsSent int64 // data segments transmitted (incl. retransmissions)
	PktsRetx int64 // subflow-level retransmissions
	RTOs     int64 // retransmission timeouts
	FastRetx int64 // fast-retransmit (recovery entry) events
}

// Subflow is the sender-side state machine of one subflow: SACK loss
// recovery with proportional rate reduction and an RFC 6298 timer over
// the subflow sequence space, window increments delegated to the
// connection's coupled algorithm.
type Subflow struct {
	SubflowCounters
	s              *Sender
	id             int
	sndNxt, sndUna int64 // the subflow sequence space
	// meta maps outstanding subflow sequence numbers to their data-level
	// mapping and scoreboard state, in a power-of-two ring.
	meta []pktMeta
	mask int64

	// Fast recovery (SACK + conservation/PRR-style): on entry the window
	// is halved once; every later ACK permits one transmission once the
	// pipe has drained by debt segments. Candidates are unsacked holes
	// below recover first, then new data.
	dupAcks, recover, rtxNxt, debt int64
	inRec                          bool
	// Post-RTO go-back-N repair: [repairNxt, repairEnd) is presumed lost
	// and retransmitted, window permitting, before any new data; sacked
	// segments are skipped. Sequence numbers are never reused, so each
	// one's data mapping is immutable.
	repairNxt, repairEnd int64
	srtt, rttvar, rto    sim.Time // RFC 6298
	backoff              uint
	rtoOn                bool
	nextPenalty          sim.Time // §6 penalization: at most once per RTT
}

type pktMeta struct {
	dataSeq int64
	retx    bool
	sacked  bool
}

// SRTT is the smoothed RTT (0 until the first sample); Backoff counts
// the timeouts since the last cumulative-ACK progress (capped at 10);
// Sent is the count of segments ever assigned (sndNxt); Outstanding the
// unacknowledged ones.
func (sf *Subflow) SRTT() sim.Time          { return sf.srtt }
func (sf *Subflow) Backoff() uint           { return sf.backoff }
func (sf *Subflow) Sent() int64             { return sf.sndNxt }
func (sf *Subflow) Outstanding() int64      { return sf.sndNxt - sf.sndUna }
func (sf *Subflow) window() int64           { return max(int64(sf.s.CC[sf.id].Cwnd), 1) }
func (sf *Subflow) slot(seq int64) *pktMeta { return &sf.meta[seq&sf.mask] }
func (sf *Subflow) inRepair() bool          { return sf.repairEnd > sf.sndUna }

// sendable reports whether the scheduler may give the subflow new data:
// not while recovery or repair own its transmissions.
func (sf *Subflow) sendable() bool { return !sf.inRec && !sf.inRepair() }

// sendRepairs retransmits the post-RTO repair backlog, window
// permitting. (Recovery transmissions are ACK-clocked: recoveryAck.)
func (sf *Subflow) sendRepairs() {
	for sf.repairNxt < sf.repairEnd && sf.repairNxt-sf.sndUna < sf.window() {
		seq := sf.repairNxt
		sf.repairNxt++
		if !sf.slot(seq).sacked {
			sf.transmit(seq, true)
		}
	}
}

// sendNew transmits one segment of new (or reinjected) data, returning
// the data sequence it carried and whether any data was available.
func (sf *Subflow) sendNew() (int64, bool) {
	dataSeq, ok := sf.s.popData()
	if ok {
		sf.sendMapped(dataSeq)
	}
	return dataSeq, ok
}

// sendMapped transmits dataSeq under a fresh subflow sequence number;
// redundant replays and opportunistic retransmissions re-map sent data.
func (sf *Subflow) sendMapped(dataSeq int64) {
	seq := sf.sndNxt
	sf.sndNxt++
	for sf.sndNxt-sf.sndUna > sf.mask {
		old, oldMask := sf.meta, sf.mask
		sf.meta = make([]pktMeta, len(old)*2)
		sf.mask = int64(len(sf.meta) - 1)
		for s := sf.sndUna; s < sf.sndNxt; s++ {
			sf.meta[s&sf.mask] = old[s&oldMask]
		}
	}
	*sf.slot(seq) = pktMeta{dataSeq: dataSeq}
	sf.transmit(seq, false)
}

func (sf *Subflow) transmit(seq int64, retx bool) {
	m := sf.slot(seq)
	m.retx = m.retx || retx
	sf.PktsSent++
	if retx {
		sf.PktsRetx++
		sf.s.cfg.Tracer.Retx(sf.s.traceID, int32(sf.id), seq)
	}
	// The RTO tracks the oldest outstanding segment, not the latest
	// transmission: arm only when idle.
	if !sf.rtoOn {
		sf.armTimer()
	}
	sf.s.out.Send(sf.id, seq, m.dataSeq, retx)
}

func (sf *Subflow) onNewAck(ack int64, rtt sim.Time) {
	newlyAcked := ack - sf.sndUna
	sf.sndUna = ack
	sf.backoff = 0
	sf.sampleRTT(rtt)

	if sf.repairEnd > 0 {
		sf.repairNxt = max(sf.repairNxt, sf.sndUna)
		if sf.sndUna >= sf.repairEnd {
			sf.repairEnd, sf.repairNxt = 0, 0
		}
	}

	s := sf.s
	cw := &s.CC[sf.id]
	switch {
	case sf.inRec && ack >= sf.recover: // full ACK: recovery complete
		sf.inRec, sf.dupAcks, sf.debt = false, 0, 0
		s.cfg.Tracer.SubflowState(s.traceID, int32(sf.id), "open")
	case sf.inRec:
		sf.recoveryAck(newlyAcked)
	default:
		sf.dupAcks = 0
		for i := int64(0); i < newlyAcked; i++ {
			if cw.Cwnd < cw.SSThresh {
				cw.Cwnd++ // slow start
			} else {
				cw.Cwnd += s.cfg.Alg.Increase(s.CC, sf.id)
			}
		}
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.CwndChange(s.traceID, int32(sf.id), cw.Cwnd)
		}
	}
	sf.armTimer()
}

func (sf *Subflow) onDupAck() {
	sf.dupAcks++
	switch {
	case sf.inRepair(): // the timeout repair already handles everything
	case sf.inRec:
		sf.recoveryAck(1)
	case sf.dupAcks == 3:
		sf.FastRetx++
		pipe := sf.Outstanding()
		cw := sf.loss("fast", "recovery", false)
		sf.inRec, sf.recover, sf.rtxNxt = true, sf.sndNxt, sf.sndUna
		// Drain the pipe down to the new window, then clock one
		// transmission out per ACK in (conservation / PRR-style).
		sf.debt = max(pipe-int64(cw.Cwnd), 0)
		sf.retransmitHole() // the first retransmission leaves at once
	}
}

// loss applies a congestion event: the algorithm's loss hook and
// decrease, then either fast recovery's halved window or an RTO's
// collapse to one segment with the decrease as slow-start threshold.
func (sf *Subflow) loss(label, state string, rto bool) *core.Subflow {
	s := sf.s
	cw := &s.CC[sf.id]
	if s.lossObs != nil {
		s.lossObs.OnLoss(s.CC, sf.id)
	}
	d := s.cfg.Alg.Decrease(s.CC, sf.id)
	if rto {
		cw.Cwnd, cw.SSThresh = 1, max(d, 2)
	} else {
		cw.Cwnd, cw.SSThresh = d, d
	}
	if tr := s.cfg.Tracer; tr != nil {
		tr.Loss(s.traceID, int32(sf.id), label, sf.sndUna)
		tr.CwndChange(s.traceID, int32(sf.id), cw.Cwnd)
		tr.SubflowState(s.traceID, int32(sf.id), state)
	}
	return cw
}

// recoveryAck processes n arriving ACKs during fast recovery: each
// signals a segment has left the network, permitting one transmission
// once the halving debt is paid.
func (sf *Subflow) recoveryAck(n int64) {
	for ; n > 0; n-- {
		if sf.debt > 0 {
			sf.debt--
		} else if !sf.retransmitHole() {
			// ACK-clocked new data bypasses the scheduler: the clocking,
			// not a policy choice, decides when this subflow may send.
			sf.sendNew()
		}
	}
}

// retransmitHole retransmits the first unsacked, not yet retransmitted
// hole below the recovery point, reporting whether it sent one.
func (sf *Subflow) retransmitHole() bool {
	for seq := max(sf.rtxNxt, sf.sndUna); seq < sf.recover; seq++ {
		if m := sf.slot(seq); !m.sacked && !m.retx {
			sf.rtxNxt = seq + 1
			sf.transmit(seq, true)
			return true
		}
	}
	sf.rtxNxt = max(sf.rtxNxt, sf.sndUna, sf.recover)
	return false
}

// OnRTO is subflow i's retransmission timeout: collapse to one segment,
// repair everything outstanding window-paced, back the timer off, and
// reinject the outstanding data on the other subflows, so a dead path
// cannot strand the connection (§5 mobility, §6).
func (s *Sender) OnRTO(i int) {
	sf := &s.subs[i]
	sf.rtoOn = false
	if sf.Outstanding() == 0 || s.done {
		return
	}
	sf.RTOs++
	sf.loss("rto", "repair", true)
	sf.inRec, sf.dupAcks, sf.debt = false, 0, 0
	reinject := len(s.subs) > 1 && !s.cfg.DisableReinject
	for seq := sf.sndUna; seq < sf.sndNxt; seq++ {
		// Earlier recovery retransmissions are presumed lost too.
		m := sf.slot(seq)
		m.retx = false
		if reinject && !m.sacked && m.dataSeq >= s.dataUna {
			s.reinjectQ = append(s.reinjectQ, m.dataSeq)
			s.Reinjects++
		}
	}
	sf.repairNxt, sf.repairEnd = sf.sndUna, sf.sndNxt
	sf.backoff = min(sf.backoff+1, maxBackoff)
	sf.armTimer()
	sf.sendRepairs()
}

// sampleRTT folds one RTT measurement into the RFC 6298 estimator.
func (sf *Subflow) sampleRTT(rtt sim.Time) {
	if rtt <= 0 {
		return
	}
	if sf.srtt == 0 {
		sf.srtt, sf.rttvar = rtt, rtt/2
	} else { // SRTT = 7/8 SRTT + 1/8 R, RTTVAR = 3/4 RTTVAR + 1/4 |SRTT-R|
		sf.rttvar = (3*sf.rttvar + max(sf.srtt-rtt, rtt-sf.srtt)) / 4
		sf.srtt = (7*sf.srtt + rtt) / 8
	}
	s := sf.s
	s.CC[sf.id].SRTT = sf.srtt.Seconds()
	if s.rttObs != nil {
		s.rttObs.OnRTTSample(s.CC, sf.id, rtt.Seconds())
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.RTTSample(s.traceID, int32(sf.id), rtt.Seconds())
	}
	sf.rto = min(max(sf.srtt+4*sf.rttvar, s.cfg.MinRTO), MaxRTO)
}

// armTimer (re)starts the retransmission timer for the oldest
// outstanding segment, or stops it when nothing is in flight.
func (sf *Subflow) armTimer() {
	d := min(sf.rto<<sf.backoff, MaxRTO)
	if sf.Outstanding() == 0 {
		d = 0
	}
	sf.rtoOn = d > 0
	sf.s.out.SetRTO(sf.id, d)
}
