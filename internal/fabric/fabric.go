// Package fabric defines the narrow transport seam between Cicero's
// protocol components (controllers, switches, BFT replicas) and whatever
// carries their messages. The protocol code is written against the Fabric
// interface only, so the identical controller/switch/BFT logic runs on:
//
//   - simnet: the deterministic discrete-event simulator (virtual time,
//     bit-reproducible runs from a seed) — internal/simnet;
//   - inproc: a live in-process backend (one goroutine mailbox per node,
//     wall-clock timers, channel transport) — internal/livenet;
//   - tcp: a live backend over localhost TCP sockets with length-prefixed
//     frames and per-peer reconnect — internal/livenet.
//
// The seam is deliberately minimal: registration, asynchronous datagram
// sends (delivery is best-effort; protocols must tolerate loss), per-node
// timers, CPU accounting, a clock, and a crash query. Anything richer
// (fault filters, jitter, bandwidth models) stays backend-specific.
package fabric

import (
	"fmt"
	"time"
)

// NodeID names a node on the fabric (switch, controller, host).
type NodeID string

// Message is an opaque protocol message. Handlers type-switch on it. Live
// backends that cross a real wire serialize messages with the wire codec
// (internal/protocol.WireCodec); within a process messages pass by value.
type Message any

// Time is a fabric timestamp: virtual time since simulation start on
// simnet, wall-clock time since fabric creation on live backends.
type Time = time.Duration

// FaultAction tells a backend what to do with one in-flight message. The
// zero value means "deliver normally". Fields compose: a message can be
// replaced, delayed, and duplicated in one action; Drop wins over the rest.
type FaultAction struct {
	// Drop discards the message (counted as an injected drop).
	Drop bool
	// Delay adds extra latency on top of the link's own delay.
	Delay time.Duration
	// Duplicates injects this many extra copies of the message, each
	// delivered independently (so copies may reorder).
	Duplicates int
	// Replace, when non-nil, substitutes the delivered payload (corruption
	// and Byzantine mutation). The original msg is left untouched; filters
	// must deep-copy before mutating shared structures.
	Replace Message
}

// Filter inspects every message that passed the crash/partition checks and
// decides its fate. On simnet it runs synchronously on the simulator loop;
// on live backends it runs on whatever goroutine called Send, so filters
// used live must be safe for concurrent use. A nil filter delivers
// everything normally.
type Filter func(from, to NodeID, msg Message, size int) FaultAction

// FaultInjector is the optional fault plane a fabric may expose: the chaos
// engine installs one Filter that adjudicates every admitted message, the
// same way on simnet and on the live backends.
type FaultInjector interface {
	// SetFilter installs (or, with nil, removes) the message fault filter.
	SetFilter(f Filter)
}

// Handler processes messages delivered to a node. A backend guarantees
// that all deliveries, timer callbacks, and Invoke thunks for one node run
// serially (simnet: the single event loop; livenet: the node's mailbox
// goroutine), so handlers need no internal locking.
type Handler interface {
	HandleMessage(from NodeID, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from NodeID, msg Message)

// HandleMessage calls f.
func (f HandlerFunc) HandleMessage(from NodeID, msg Message) { f(from, msg) }

var _ Handler = (HandlerFunc)(nil)

// Stats summarizes fabric traffic. Dropped is the total; the Dropped*
// fields break it out by cause (crashed destination, partitioned link,
// unregistered destination or transport error, chaos-filter injection).
// All backends track all four.
type Stats struct {
	Sent             uint64
	Delivered        uint64
	Dropped          uint64
	Bytes            uint64
	DroppedCrash     uint64
	DroppedPartition uint64
	DroppedUnknown   uint64
	DroppedInjected  uint64
}

// Fabric carries messages and timers between registered nodes.
type Fabric interface {
	// Register adds a node with its message handler. Registering an
	// existing id replaces its handler (used when a controller restarts).
	Register(id NodeID, h Handler)

	// Send transmits msg of the given estimated wire size from one node to
	// another. It is asynchronous and best-effort: the message is silently
	// dropped if the destination is unknown, crashed, or partitioned
	// (datagram semantics — protocols must tolerate loss). Backends that
	// serialize report actual encoded bytes in Stats.Bytes; where no real
	// wire exists size is added to it instead. It decides nothing else on
	// any backend: no delay, no drop, no figure.
	Send(from, to NodeID, msg Message, size int)

	// After schedules fn on a node after delay; it is suppressed if the
	// node is crashed when the timer fires. fn runs in the node's serial
	// execution context.
	After(id NodeID, delay time.Duration, fn func())

	// Invoke runs fn in the node's serial execution context as soon as
	// possible: after whatever the node is handling now, never beside it.
	// It is how code outside a node touches the node's state (flow tables,
	// counters, ledgers), and it runs even on a crashed node. A node's own
	// handler defers work with After, not Invoke.
	Invoke(id NodeID, fn func())

	// Charge accounts cost seconds of CPU work to a node. On simnet this
	// delays the node's subsequent work (the calibrated cost model); live
	// backends only account it (real work already takes real time).
	Charge(id NodeID, cost time.Duration)

	// BusyTotal returns the cumulative CPU time charged to a node.
	BusyTotal(id NodeID) time.Duration

	// Now returns the fabric clock: virtual time on simnet, wall-clock
	// time since creation on live backends.
	Now() Time

	// Crashed reports whether the node is currently failed.
	Crashed(id NodeID) bool

	// Stats returns a snapshot of traffic counters.
	Stats() Stats
}

// InvokeWait runs fn in the node's serial context and waits for it to
// return — how a driver reads or pokes node state from outside the fabric,
// on every backend. It gives up after timeout: a closed fabric or a wedged
// mailbox never runs the thunk. Calling it from the node's own context
// would wait for itself. Deployments are driven through core.Network.On,
// which is this call under one bound.
func InvokeWait(fab Fabric, id NodeID, fn func(), timeout time.Duration) error {
	done := make(chan struct{})
	fab.Invoke(id, func() {
		fn()
		close(done)
	})
	// Stopped on return: drivers call this in loops, and a timer left to
	// run would outlive each call by the whole timeout.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		return fmt.Errorf("fabric: node %s did not run invoke within %v", id, timeout)
	}
}
