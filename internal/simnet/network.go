package simnet

import (
	"fmt"
	"time"

	"cicero/internal/fabric"
)

// Network implements the fabric seam: the same protocol code that runs
// here on virtual time runs on the live backends of internal/livenet.
var _ fabric.Fabric = (*Network)(nil)

// LatencyFunc returns the one-way propagation latency between two nodes.
type LatencyFunc func(from, to NodeID) time.Duration

// FaultAction and Filter are the fabric-level fault-plane types; they are
// aliased here (like NodeID and Message) because the chaos engine was
// originally written against simnet. On simnet the filter runs
// synchronously on the simulator loop, so any randomness it uses must come
// from a deterministic source for runs to stay reproducible.
type (
	FaultAction = fabric.FaultAction
	Filter      = fabric.Filter
)

var _ fabric.FaultInjector = (*Network)(nil)

// Network delivers messages between registered nodes over the simulator,
// imposing latency, jitter, crash faults, and partitions, and accounting
// per-node CPU usage.
type Network struct {
	sim   *Simulator
	nodes map[NodeID]*node

	// Latency computes propagation delay per (from, to) pair; when nil,
	// DefaultLatency applies uniformly.
	Latency LatencyFunc
	// DefaultLatency applies when Latency is nil or returns a negative
	// value for a pair.
	DefaultLatency time.Duration
	// JitterFrac adds uniform random jitter in [0, JitterFrac·latency).
	JitterFrac float64

	// partitioned is directional: partitioned[from][to] blocks messages
	// from -> to only. Partition sets both directions; PartitionOneWay one.
	partitioned map[NodeID]map[NodeID]bool

	// filter, when set, adjudicates every message after the crash and
	// partition checks (the chaos fault plane hooks in here).
	filter Filter

	// Stats
	sent             uint64
	delivered        uint64
	dropped          uint64
	bytes            uint64
	droppedCrash     uint64
	droppedPartition uint64
	droppedUnknown   uint64
	droppedInjected  uint64
}

// node is the per-node bookkeeping.
type node struct {
	id        NodeID
	handler   Handler
	crashed   bool
	busyUntil Time
	busyTotal time.Duration
}

// NewNetwork creates a network on top of sim with a default latency.
func NewNetwork(sim *Simulator, defaultLatency time.Duration) *Network {
	return &Network{
		sim:            sim,
		nodes:          make(map[NodeID]*node),
		DefaultLatency: defaultLatency,
		partitioned:    make(map[NodeID]map[NodeID]bool),
	}
}

// Sim returns the underlying simulator.
func (n *Network) Sim() *Simulator { return n.sim }

// Now returns the current virtual time (fabric clock).
func (n *Network) Now() Time { return n.sim.Now() }

// Invoke runs fn before it returns. The simulator is single-threaded:
// whoever calls, a driver between runs or an event inside one, is the only
// code executing, so the node's serial context "as soon as possible" is
// this instant.
func (n *Network) Invoke(id NodeID, fn func()) { fn() }

// Register adds a node with its message handler. Registering an existing
// id replaces its handler (used when a controller restarts).
func (n *Network) Register(id NodeID, h Handler) {
	if existing, ok := n.nodes[id]; ok {
		existing.handler = h
		existing.crashed = false
		return
	}
	n.nodes[id] = &node{id: id, handler: h}
}

// Crash marks a node as failed: it no longer receives messages or timers.
func (n *Network) Crash(id NodeID) {
	if nd, ok := n.nodes[id]; ok {
		nd.crashed = true
	}
}

// Recover clears a node's crash flag.
func (n *Network) Recover(id NodeID) {
	if nd, ok := n.nodes[id]; ok {
		nd.crashed = false
	}
}

// Crashed reports whether the node is currently failed.
func (n *Network) Crashed(id NodeID) bool {
	nd, ok := n.nodes[id]
	return ok && nd.crashed
}

// Partition severs the link between a and b in both directions.
func (n *Network) Partition(a, b NodeID) {
	if n.partitioned[a] == nil {
		n.partitioned[a] = make(map[NodeID]bool)
	}
	if n.partitioned[b] == nil {
		n.partitioned[b] = make(map[NodeID]bool)
	}
	n.partitioned[a][b] = true
	n.partitioned[b][a] = true
}

// Heal restores the link between a and b.
func (n *Network) Heal(a, b NodeID) {
	delete(n.partitioned[a], b)
	delete(n.partitioned[b], a)
}

// PartitionOneWay severs only the from -> to direction: from's messages to
// to are dropped while to can still reach from (asymmetric partition).
func (n *Network) PartitionOneWay(from, to NodeID) {
	if n.partitioned[from] == nil {
		n.partitioned[from] = make(map[NodeID]bool)
	}
	n.partitioned[from][to] = true
}

// HealOneWay restores only the from -> to direction.
func (n *Network) HealOneWay(from, to NodeID) {
	delete(n.partitioned[from], to)
}

// PartitionSet severs every link between a node in groupA and a node in
// groupB, in both directions. Links within a group are untouched.
func (n *Network) PartitionSet(groupA, groupB []NodeID) {
	for _, a := range groupA {
		for _, b := range groupB {
			n.Partition(a, b)
		}
	}
}

// HealSet restores every link between the two groups.
func (n *Network) HealSet(groupA, groupB []NodeID) {
	for _, a := range groupA {
		for _, b := range groupB {
			n.Heal(a, b)
		}
	}
}

// Partitioned reports whether messages from -> to are currently blocked.
func (n *Network) Partitioned(from, to NodeID) bool {
	return n.partitioned[from][to]
}

// SetFilter installs (or, with nil, removes) the message fault filter.
func (n *Network) SetFilter(f Filter) { n.filter = f }

// Send transmits msg from one node to another. Delivery happens after
// propagation latency and jitter; it is silently dropped if the destination
// is crashed or the pair is partitioned (datagram semantics — protocols must
// tolerate loss). size is the caller's estimate of the wire size: it is
// added to Stats.Bytes and decides nothing.
func (n *Network) Send(from, to NodeID, msg Message, size int) {
	n.sent++
	n.bytes += uint64(size)
	dst, ok := n.nodes[to]
	if !ok {
		n.dropped++
		n.droppedUnknown++
		return
	}
	if n.partitioned[from][to] {
		n.dropped++
		n.droppedPartition++
		return
	}
	var extraDelay time.Duration
	copies := 1
	if n.filter != nil {
		act := n.filter(from, to, msg, size)
		if act.Drop {
			n.dropped++
			n.droppedInjected++
			return
		}
		if act.Replace != nil {
			msg = act.Replace
		}
		extraDelay = act.Delay
		if act.Duplicates > 0 {
			copies += act.Duplicates
			n.sent += uint64(act.Duplicates)
			n.bytes += uint64(act.Duplicates) * uint64(size)
		}
	}
	src := n.nodes[from]
	// A busy sender emits after it finishes its current processing.
	depart := n.sim.Now()
	if src != nil && src.busyUntil > depart {
		depart = src.busyUntil
	}
	for i := 0; i < copies; i++ {
		arrive := depart + extraDelay + n.linkDelay(from, to)
		n.deliver(dst, from, msg, arrive)
	}
}

// deliver schedules one copy of msg to arrive at dst at the given time,
// honoring crash state and receiver busy-queueing at delivery time.
func (n *Network) deliver(dst *node, from NodeID, msg Message, arrive Time) {
	n.sim.At(arrive, func() {
		if dst.crashed {
			n.dropped++
			n.droppedCrash++
			return
		}
		n.delivered++
		// A busy receiver queues the message until it is free.
		start := n.sim.Now()
		if dst.busyUntil > start {
			n.sim.At(dst.busyUntil, func() {
				if !dst.crashed {
					dst.handler.HandleMessage(from, msg)
				}
			})
			return
		}
		dst.handler.HandleMessage(from, msg)
	})
}

// linkDelay computes propagation + jitter for a message.
func (n *Network) linkDelay(from, to NodeID) time.Duration {
	lat := n.DefaultLatency
	if n.Latency != nil {
		if l := n.Latency(from, to); l >= 0 {
			lat = l
		}
	}
	if n.JitterFrac > 0 && lat > 0 {
		lat += time.Duration(n.sim.rng.Float64() * n.JitterFrac * float64(lat))
	}
	return lat
}

// Charge accounts cost seconds of CPU work to a node, starting no earlier
// than now: subsequent message handling and emissions from that node are
// delayed accordingly, and the time is added to its utilization counter.
func (n *Network) Charge(id NodeID, cost time.Duration) {
	nd, ok := n.nodes[id]
	if !ok || cost <= 0 {
		return
	}
	start := n.sim.Now()
	if nd.busyUntil > start {
		start = nd.busyUntil
	}
	nd.busyUntil = start + cost
	nd.busyTotal += cost
}

// BusyTotal returns the cumulative CPU time charged to a node.
func (n *Network) BusyTotal(id NodeID) time.Duration {
	if nd, ok := n.nodes[id]; ok {
		return nd.busyTotal
	}
	return 0
}

// After schedules fn on a node after delay; it is suppressed if the node
// is crashed when the timer fires.
func (n *Network) After(id NodeID, delay time.Duration, fn func()) {
	n.sim.Schedule(delay, func() {
		if nd, ok := n.nodes[id]; ok && !nd.crashed {
			fn()
		}
	})
}

// Stats summarizes traffic counters. Dropped is the total; the Dropped*
// fields break it out by cause (crashed destination, partitioned link,
// unregistered destination, chaos-filter injection).
type Stats = fabric.Stats

// Stats returns a snapshot of traffic counters.
func (n *Network) Stats() Stats {
	return Stats{
		Sent:             n.sent,
		Delivered:        n.delivered,
		Dropped:          n.dropped,
		Bytes:            n.bytes,
		DroppedCrash:     n.droppedCrash,
		DroppedPartition: n.droppedPartition,
		DroppedUnknown:   n.droppedUnknown,
		DroppedInjected:  n.droppedInjected,
	}
}

// NodeIDs returns the registered node ids (order unspecified).
func (n *Network) NodeIDs() []NodeID {
	ids := make([]NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		ids = append(ids, id)
	}
	return ids
}

// String renders a short traffic summary for logs.
func (n *Network) String() string {
	return fmt.Sprintf("simnet{nodes=%d sent=%d delivered=%d dropped=%d}",
		len(n.nodes), n.sent, n.delivered, n.dropped)
}
