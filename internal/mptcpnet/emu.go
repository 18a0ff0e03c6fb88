package mptcpnet

import (
	"net"
	"time"

	"mptcp/internal/chaos"
)

// EmuPath wraps a net.PacketConn with one-way delay, i.i.d. loss and a
// token-bucket rate limit: the paper's heterogeneous radio links (WiFi
// vs 3G) over loopback. It is a thin shim over chaos.Path; use
// internal/chaos directly for its full fault model.
type EmuPath struct {
	*chaos.Path
}

// NewEmuPath wraps conn with the given one-way delay, loss rate and rate
// limit (0 = unlimited), deterministically seeded.
func NewEmuPath(conn net.PacketConn, delay time.Duration, loss float64, rateBps float64, seed int64) *EmuPath {
	return &EmuPath{Path: chaos.New(conn, chaos.PathConfig{Delay: delay, LossRate: loss, RateBps: rateBps}, seed)}
}

// SetLossRate changes the path's loss rate mid-run, the socket-level
// link flap (1.0 = the radio is gone). Safe for concurrent use.
func (e *EmuPath) SetLossRate(p float64) {
	e.Update(func(c *chaos.PathConfig) { c.LossRate = p })
}

// SetDelay changes the path's one-way delay mid-run (a handover);
// packets already written keep theirs. Safe for concurrent use.
func (e *EmuPath) SetDelay(d time.Duration) {
	e.Update(func(c *chaos.PathConfig) { c.Delay = d })
}

// Stats returns the path's sent/dropped counters.
func (e *EmuPath) Stats() (sent, dropped int64) {
	st := e.Path.Stats()
	return st.Sent, st.Dropped
}
