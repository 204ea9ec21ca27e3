package livenet

import "sync/atomic"

// LamportClock is the per-process logical clock the multi-process
// deployment threads through every TCP frame. Each process ticks the
// clock on local events (sends, trace records) and observes the sender's
// value on every delivery, so any event that causally follows another —
// across any number of processes — carries a strictly larger timestamp.
// The cross-process trace merge tool (cmd/cicero-trace) sorts on these
// values to reconstruct one coherent timeline from per-process trace
// files.
type LamportClock struct {
	v atomic.Uint64
}

// NewLamportClock returns a clock at zero.
func NewLamportClock() *LamportClock { return &LamportClock{} }

// Tick advances the clock for a local event and returns the new value.
func (c *LamportClock) Tick() uint64 { return c.v.Add(1) }

// Observe merges a remote timestamp: the clock jumps to
// max(local, remote) + 1 and returns the new value. It is called for
// every inbound frame before the message reaches its handler.
func (c *LamportClock) Observe(remote uint64) uint64 {
	for {
		cur := c.v.Load()
		next := cur + 1
		if remote >= cur {
			next = remote + 1
		}
		if c.v.CompareAndSwap(cur, next) {
			return next
		}
	}
}
