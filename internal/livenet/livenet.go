// Package livenet provides live (wall-clock) implementations of the
// fabric seam, so the identical controller/switch/BFT code that runs on
// the deterministic simulator also runs as a real concurrent system:
//
//   - InProc: one goroutine mailbox per node, wall-clock timers, and
//     channel-style in-process message passing. Optionally round-trips
//     every message through the wire codec so serialization bugs surface
//     in fast in-process tests.
//   - TCP: the same node runtime, with messages crossing localhost TCP
//     sockets as length-prefixed codec frames through per-peer links: a
//     bounded outbound queue, a writer goroutine that writes whatever is
//     queued in one system call under one deadline per write and retries
//     with bounded exponential backoff and jitter. The receiving side
//     reads each connection through one buffered reader.
//
// Both backends implement fabric.FaultInjector, so the chaos engine's
// drop/delay/duplicate/corrupt filters inject on live transports exactly
// as they do on simnet; Crash/Restart additionally model real process
// death (mailbox purge, and on TCP severed sockets plus a fresh listener
// on restart).
//
// Both backends keep the fabric's per-node serial execution contract: all
// deliveries, timer callbacks, and Invoke thunks for one node run on that
// node's single mailbox goroutine, so protocol handlers need no locking.
// Unlike the simulator there is no global event order — runs are
// concurrent and nondeterministic — which is exactly what the
// cross-backend gate exercises (see internal/experiments/crosscheck.go).
package livenet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cicero/internal/fabric"
)

// Codec serializes fabric messages for a real wire. It is satisfied by
// *protocol.WireCodec; livenet depends only on this interface so the
// transport layer stays below the protocol vocabulary.
type Codec interface {
	Encode(msg fabric.Message) ([]byte, error)
	// AppendEncode appends msg's encoding to dst: the TCP backend encodes
	// straight behind its frame header.
	AppendEncode(dst []byte, msg fabric.Message) ([]byte, error)
	Decode(data []byte) (fabric.Message, error)
}

// Live is what a driver needs from a live backend beyond fabric.Fabric:
// the fault plane, the resilience counters, and teardown. Both backends
// satisfy it.
type Live interface {
	fabric.Fabric
	fabric.FaultInjector
	Crash(fabric.NodeID)
	Restart(fabric.NodeID)
	Partition(a, b fabric.NodeID)
	Heal(a, b fabric.NodeID)
	PartitionOneWay(from, to fabric.NodeID)
	HealOneWay(from, to fabric.NodeID)
	Resilience() ResilienceStats
	Close()
}

// Open builds the backend named "inproc" or "tcp": the one place a
// driver's backend name becomes a fabric.
func Open(backend string, codec Codec) (Live, error) {
	switch backend {
	case "inproc":
		return NewInProc(codec), nil
	case "tcp":
		return NewTCP(codec)
	default:
		return nil, fmt.Errorf("livenet: unknown backend %q (have inproc, tcp)", backend)
	}
}

// node is one registered endpoint: a handler plus its serial mailbox.
type node struct {
	id   fabric.NodeID
	mu   sync.Mutex
	cond *sync.Cond
	// queue is the unbounded mailbox. Unbounded is deliberate: a bounded
	// queue would block senders, and a node sending to itself (or two
	// nodes flooding each other) could deadlock under backpressure.
	queue  []func()
	closed bool
	h      fabric.Handler
	busy   atomic.Int64 // accumulated Charge, nanoseconds
}

// enqueue appends a thunk to the mailbox (no-op after close).
func (n *node) enqueue(fn func()) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.queue = append(n.queue, fn)
	n.mu.Unlock()
	n.cond.Signal()
}

// purge discards every queued-but-unprocessed thunk: the volatile-state
// loss of a crash. Thunks already executing run to completion (the node
// "crashes" between messages, never mid-handler — the same granularity
// simnet models).
func (n *node) purge() {
	n.mu.Lock()
	n.queue = nil
	n.mu.Unlock()
}

// loop is the mailbox goroutine: it drains thunks strictly serially.
func (n *node) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		n.mu.Lock()
		for len(n.queue) == 0 && !n.closed {
			n.cond.Wait()
		}
		if n.closed {
			n.mu.Unlock()
			return
		}
		batch := n.queue
		n.queue = nil
		n.mu.Unlock()
		for _, fn := range batch {
			fn()
		}
	}
}

// handler returns the current handler (Register may replace it live).
func (n *node) handler() fabric.Handler {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.h
}

// stats is the atomic counter block behind fabric.Stats, plus the
// resilience counters live backends accumulate (retries, reconnects,
// crash/restart events).
type stats struct {
	sent             atomic.Uint64
	delivered        atomic.Uint64
	bytes            atomic.Uint64
	droppedCrash     atomic.Uint64
	droppedPartition atomic.Uint64
	droppedUnknown   atomic.Uint64
	droppedInjected  atomic.Uint64

	retries    atomic.Uint64
	reconnects atomic.Uint64
	crashes    atomic.Uint64
	restarts   atomic.Uint64
}

// snapshot converts to the fabric view.
func (s *stats) snapshot() fabric.Stats {
	out := fabric.Stats{
		Sent:             s.sent.Load(),
		Delivered:        s.delivered.Load(),
		Bytes:            s.bytes.Load(),
		DroppedCrash:     s.droppedCrash.Load(),
		DroppedPartition: s.droppedPartition.Load(),
		DroppedUnknown:   s.droppedUnknown.Load(),
		DroppedInjected:  s.droppedInjected.Load(),
	}
	out.Dropped = out.DroppedCrash + out.DroppedPartition +
		out.DroppedUnknown + out.DroppedInjected
	return out
}

// ResilienceStats counts the transport-resilience events a live run saw.
// InProc only reports crash/restart events; TCP reports all of them.
type ResilienceStats struct {
	// Retries is the number of write attempts beyond the first, each for
	// the frames a failed attempt left unwritten — after a failed dial or
	// a failed write alike.
	Retries uint64
	// Reconnects is the number of successful redials after a connection
	// went bad.
	Reconnects uint64
	// BreakerTrips is always zero: no backend has a circuit breaker. It
	// stays for the benchmark, which still reports livenet.breaker_trips.
	BreakerTrips uint64
	// Crashes and Restarts count fault-plane crash/restart events.
	Crashes  uint64
	Restarts uint64
}

// resilience snapshots the resilience counters.
func (s *stats) resilience() ResilienceStats {
	return ResilienceStats{
		Retries:    s.retries.Load(),
		Reconnects: s.reconnects.Load(),
		Crashes:    s.crashes.Load(),
		Restarts:   s.restarts.Load(),
	}
}

// base is the node runtime shared by both live backends: registration,
// mailboxes, wall-clock timers, crash/partition state, and stats.
type base struct {
	start time.Time

	mu      sync.RWMutex
	nodes   map[fabric.NodeID]*node
	crashed map[fabric.NodeID]bool
	parts   map[[2]fabric.NodeID]bool
	closed  bool

	// tmu guards the pending After timers, which Close stops: a timer holds
	// its callback, and with it the node, until it fires.
	tmu    sync.Mutex
	timers map[*time.Timer]struct{}

	// fmu guards the chaos fault filter separately from the node maps so
	// hot-path sends read it with minimal contention.
	fmu    sync.RWMutex
	filter fabric.Filter

	wg sync.WaitGroup
	st stats
}

func newBase() base {
	return base{
		start:   time.Now(),
		nodes:   make(map[fabric.NodeID]*node),
		crashed: make(map[fabric.NodeID]bool),
		parts:   make(map[[2]fabric.NodeID]bool),
		timers:  make(map[*time.Timer]struct{}),
	}
}

// Register adds a node (starting its mailbox goroutine) or replaces an
// existing node's handler.
func (b *base) Register(id fabric.NodeID, h fabric.Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if n, ok := b.nodes[id]; ok {
		n.mu.Lock()
		n.h = h
		n.mu.Unlock()
		return
	}
	n := &node{id: id, h: h}
	n.cond = sync.NewCond(&n.mu)
	b.nodes[id] = n
	b.wg.Add(1)
	go n.loop(&b.wg)
}

// lookup returns a node if registered.
func (b *base) lookup(id fabric.NodeID) (*node, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n, ok := b.nodes[id]
	return n, ok
}

// After schedules fn on the node's mailbox after a wall-clock delay; the
// timer is suppressed if the node is crashed when it fires, and stopped
// when the fabric closes.
func (b *base) After(id fabric.NodeID, delay time.Duration, fn func()) {
	b.tmu.Lock()
	defer b.tmu.Unlock()
	var t *time.Timer
	t = time.AfterFunc(delay, func() {
		b.tmu.Lock()
		delete(b.timers, t)
		b.tmu.Unlock()
		if b.Crashed(id) {
			return
		}
		if n, ok := b.lookup(id); ok {
			n.enqueue(fn)
		}
	})
	b.timers[t] = struct{}{}
}

// Invoke runs fn on the node's mailbox as soon as possible (even when the
// node is crashed — drivers use it to inspect state).
func (b *base) Invoke(id fabric.NodeID, fn func()) {
	if n, ok := b.lookup(id); ok {
		n.enqueue(fn)
	}
}

// InvokeWait runs fn on the node's mailbox and blocks until it returns —
// a convenience for drivers reading node state (flow tables, counters)
// from outside the fabric. Calling it from the node's own mailbox would
// self-deadlock; it is for external drivers only.
func (b *base) InvokeWait(id fabric.NodeID, fn func()) {
	n, ok := b.lookup(id)
	if !ok {
		return
	}
	done := make(chan struct{})
	n.enqueue(func() {
		fn()
		close(done)
	})
	<-done
}

// Charge accounts CPU cost; live backends only track it (the real work
// already took real time).
func (b *base) Charge(id fabric.NodeID, cost time.Duration) {
	if n, ok := b.lookup(id); ok {
		n.busy.Add(int64(cost))
	}
}

// BusyTotal returns cumulative charged CPU time.
func (b *base) BusyTotal(id fabric.NodeID) time.Duration {
	if n, ok := b.lookup(id); ok {
		return time.Duration(n.busy.Load())
	}
	return 0
}

// Now is wall-clock time since the fabric was created.
func (b *base) Now() fabric.Time { return time.Since(b.start) }

// SetFilter installs (or, with nil, removes) the message fault filter. On
// live backends the filter runs on whatever goroutine called Send, so it
// must be safe for concurrent use.
func (b *base) SetFilter(f fabric.Filter) {
	b.fmu.Lock()
	b.filter = f
	b.fmu.Unlock()
}

// getFilter reads the current filter.
func (b *base) getFilter() fabric.Filter {
	b.fmu.RLock()
	defer b.fmu.RUnlock()
	return b.filter
}

// Crash marks a node failed: its inbound messages drop, its timers are
// suppressed until Restart, and every thunk already queued in its mailbox
// is discarded (volatile-state loss). Thunks enqueued after the crash —
// Invoke, used by drivers to inspect the wreck — still run.
func (b *base) Crash(id fabric.NodeID) {
	b.mu.Lock()
	b.crashed[id] = true
	n := b.nodes[id]
	b.mu.Unlock()
	b.st.crashes.Add(1)
	if n != nil {
		n.purge()
	}
}

// Restart clears a node's crash flag. The node restarts empty-handed: its
// pre-crash mailbox was purged, so recovery is the protocol's job (replay
// and resync), not the transport's.
func (b *base) Restart(id fabric.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.crashed[id] {
		return
	}
	delete(b.crashed, id)
	b.st.restarts.Add(1)
}

// Partition blocks messages in both directions between a and b.
func (b *base) Partition(x, y fabric.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.parts[[2]fabric.NodeID{x, y}] = true
	b.parts[[2]fabric.NodeID{y, x}] = true
}

// Heal removes a partition.
func (b *base) Heal(x, y fabric.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.parts, [2]fabric.NodeID{x, y})
	delete(b.parts, [2]fabric.NodeID{y, x})
}

// PartitionOneWay blocks messages from -> to only (asymmetric fault: e.g.
// a switch's acks vanish while updates still flow in).
func (b *base) PartitionOneWay(from, to fabric.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.parts[[2]fabric.NodeID{from, to}] = true
}

// HealOneWay removes a one-way partition.
func (b *base) HealOneWay(from, to fabric.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.parts, [2]fabric.NodeID{from, to})
}

// Crashed reports the node's crash flag.
func (b *base) Crashed(id fabric.NodeID) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.crashed[id]
}

// Stats snapshots the traffic counters.
func (b *base) Stats() fabric.Stats { return b.st.snapshot() }

// Resilience snapshots the resilience counters (retries, reconnects,
// crashes, restarts).
func (b *base) Resilience() ResilienceStats { return b.st.resilience() }

// admit applies the shared datagram drop rules (unknown, crashed,
// partitioned destination) and counts the send. It returns the
// destination node, or a typed error saying why the send was refused.
func (b *base) admit(from, to fabric.NodeID) (*node, error) {
	return b.admitSend(from, to, false)
}

// admitSend is admit with multi-process awareness: when remoteOK is true
// a destination that is not locally registered is admitted with a nil
// node (the caller owns a remote route to it). Crash and partition state
// still apply — they reflect this process's local view of the fault
// plane.
func (b *base) admitSend(from, to fabric.NodeID, remoteOK bool) (*node, error) {
	b.st.sent.Add(1)
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		b.st.droppedUnknown.Add(1)
		return nil, ErrFabricClosed
	}
	if b.crashed[to] {
		b.st.droppedCrash.Add(1)
		return nil, ErrNodeCrashed
	}
	if b.parts[[2]fabric.NodeID{from, to}] {
		b.st.droppedPartition.Add(1)
		return nil, ErrPartitioned
	}
	n, ok := b.nodes[to]
	if !ok {
		if remoteOK {
			return nil, nil
		}
		b.st.droppedUnknown.Add(1)
		return nil, ErrUnknownNode
	}
	return n, nil
}

// inject runs the chaos fault filter over an admitted message. It returns
// the (possibly replaced) message, the number of copies to deliver, the
// extra injected delay, and ErrInjectedDrop when the filter dropped it.
// Extra copies are counted as sent, matching simnet's accounting.
func (b *base) inject(from, to fabric.NodeID, msg fabric.Message, size int) (fabric.Message, int, time.Duration, error) {
	f := b.getFilter()
	if f == nil {
		return msg, 1, 0, nil
	}
	act := f(from, to, msg, size)
	if act.Drop {
		b.st.droppedInjected.Add(1)
		return nil, 0, 0, ErrInjectedDrop
	}
	if act.Replace != nil {
		msg = act.Replace
	}
	copies := 1 + act.Duplicates
	if act.Duplicates > 0 {
		b.st.sent.Add(uint64(act.Duplicates))
	}
	return msg, copies, act.Delay, nil
}

// closeNodes shuts every mailbox and waits for the goroutines to exit.
func (b *base) closeNodes() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.tmu.Lock()
	for t := range b.timers {
		t.Stop()
	}
	b.tmu.Unlock()
	nodes := make([]*node, 0, len(b.nodes))
	for _, n := range b.nodes {
		nodes = append(nodes, n)
	}
	b.mu.Unlock()
	for _, n := range nodes {
		n.mu.Lock()
		n.closed = true
		n.mu.Unlock()
		n.cond.Signal()
	}
	b.wg.Wait()
}
