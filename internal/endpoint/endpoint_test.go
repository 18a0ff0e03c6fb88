package endpoint

import (
	"testing"

	"mptcp/internal/core"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
)

// loopOut is an Out that records transmissions without any network:
// tests play the receiver by hand.
type loopOut struct {
	sent []int64 // subflow sequence numbers, in transmission order
}

func (o *loopOut) Send(_ int, seq, _ int64, _ bool) { o.sent = append(o.sent, seq) }
func (o *loopOut) Probe(int)                        {}
func (o *loopOut) SetRTO(int, sim.Time)             {}
func (o *loopOut) SetPersist(sim.Time)              {}

func newSender(out Out, minRTO sim.Time) *Sender {
	s := &Sender{}
	s.Init(Config{
		Alg: core.Regular{}, Sched: sched.FirstFit{}, Subflows: 1, Total: Infinite,
		Window: 1 << 20, InitialCwnd: 2, MinRTO: minRTO,
	}, out)
	return s
}

// TestRTTEstimator pins the RFC 6298 estimator both stacks share: the
// first sample sets SRTT = R and RTTVAR = R/2, later ones smooth with
// gains 1/8 and 1/4, non-positive samples are ignored, and the RTO
// SRTT + 4·RTTVAR clamps to [MinRTO, 60 s] however wild the samples.
func TestRTTEstimator(t *testing.T) {
	ms := sim.Millisecond
	for _, tc := range []struct {
		name              string
		minRTO            sim.Time
		samples           []sim.Time
		srtt, rttvar, rto sim.Time
	}{
		{"none", 200 * ms, nil, 0, 0, initialRTO},
		{"non-positive ignored", 200 * ms, []sim.Time{0, -5 * ms}, 0, 0, initialRTO},
		{"first sample", 10 * ms, []sim.Time{100 * ms}, 100 * ms, 50 * ms, 300 * ms},
		{"smoothed", 10 * ms, []sim.Time{100 * ms, 50 * ms}, 93750 * sim.Microsecond, 50 * ms, 293750 * sim.Microsecond},
		{"min clamp", 200 * ms, []sim.Time{10 * ms}, 10 * ms, 5 * ms, 200 * ms},
		{"max clamp", 200 * ms, []sim.Time{10 * 3600 * sim.Second}, 10 * 3600 * sim.Second, 5 * 3600 * sim.Second, MaxRTO},
	} {
		sf := newSender(&loopOut{}, tc.minRTO).Subflow(0)
		for _, r := range tc.samples {
			sf.sampleRTT(r)
		}
		if sf.srtt != tc.srtt || sf.rttvar != tc.rttvar || sf.rto != tc.rto {
			t.Errorf("%s: srtt %v rttvar %v rto %v, want %v %v %v", tc.name, sf.srtt, sf.rttvar, sf.rto, tc.srtt, tc.rttvar, tc.rto)
		}
	}
}

// ackOne acknowledges the oldest outstanding segment of subflow 0,
// echoing a transmission 10 ms before now.
func ackOne(s *Sender, now sim.Time) {
	una := s.Subflow(0).sndUna + 1
	s.OnAck(0, now, Ack{Seq: una, DataAck: una, Window: 1 << 20, Sack: -1, Echo: now - 10*sim.Millisecond})
}

// The per-ACK path (scoreboard, estimator, cc increase, scheduler pick,
// transmit, timer rearm) allocates nothing once the scoreboard ring has
// grown to the window.
func TestOnAckZeroAlloc(t *testing.T) {
	out := &loopOut{sent: make([]int64, 0, 1<<16)}
	s := newSender(out, 200*sim.Millisecond)
	s.CC[0].SSThresh = 16 // then congestion avoidance: Increase runs
	now := sim.Time(0)
	s.Start(now)
	for range 100 {
		now += sim.Millisecond
		ackOne(s, now)
	}
	out.sent = out.sent[:0]
	if allocs := testing.AllocsPerRun(100, func() {
		now += sim.Millisecond
		ackOne(s, now)
		out.sent = out.sent[:0]
	}); allocs != 0 {
		t.Errorf("OnAck allocates %v times per ACK, want 0", allocs)
	}
}

// The RTO path reinjects without a scratch allocation: outstanding data
// goes straight onto the reinjection queue, and DisableReinject keeps it
// off.
func TestRTOReinjectsInPlace(t *testing.T) {
	for _, disable := range []bool{false, true} {
		s := &Sender{}
		s.Init(Config{
			Alg: &core.MPTCP{}, Sched: sched.FirstFit{}, Subflows: 2, Total: Infinite,
			Window: 1 << 20, InitialCwnd: 4, MinRTO: 200 * sim.Millisecond, DisableReinject: disable,
		}, &loopOut{})
		s.Start(0)
		s.subs[0].slot(1).sacked = true // one outstanding segment already held
		s.OnRTO(0)
		want := []int64{0, 2, 3}
		if disable {
			want = nil
		}
		if len(s.reinjectQ) != len(want) || s.Reinjects != int64(len(want)) {
			t.Fatalf("disable=%v: reinjected %v (%d counted), want %v", disable, s.reinjectQ, s.Reinjects, want)
		}
		for i, d := range want {
			if s.reinjectQ[i] != d {
				t.Errorf("disable=%v: reinjected %v, want %v", disable, s.reinjectQ, want)
			}
		}
		if sf := s.Subflow(0); sf.RTOs != 1 || sf.Backoff() != 1 || s.CC[0].Cwnd != 1 {
			t.Errorf("disable=%v: RTOs %d backoff %d cwnd %v, want 1 1 1", disable, sf.RTOs, sf.Backoff(), s.CC[0].Cwnd)
		}
	}
}
