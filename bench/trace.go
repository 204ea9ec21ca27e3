package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cicero/internal/bft"
	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
)

// msgKind classifies a fabric message for attribution. Atomic-broadcast
// traffic is classified by what MsgBFT wraps.
type msgKind uint8

const (
	kindOther msgKind = iota
	kindEvent
	kindUpdate
	kindBatchUpdate
	kindAck
	kindBFTRequest
	kindBFTPrePrepare
	kindBFTPrepare
	kindBFTCommit
	kindBFTViewChange
	kindBFTNewView
	numKinds
)

var kindNames = [numKinds]string{
	"other", "event", "update", "batchupdate", "ack",
	"bft-request", "bft-preprepare", "bft-prepare", "bft-commit", "bft-viewchange", "bft-newview",
}

func (k msgKind) String() string { return kindNames[k] }

// isBFT reports whether the kind is atomic-broadcast traffic.
func (k msgKind) isBFT() bool { return k >= kindBFTRequest && k <= kindBFTNewView }

// classify names a message's kind.
func classify(msg fabric.Message) msgKind {
	switch m := msg.(type) {
	case protocol.MsgEvent:
		return kindEvent
	case protocol.MsgUpdate:
		return kindUpdate
	case protocol.MsgBatchUpdate:
		return kindBatchUpdate
	case protocol.MsgAck:
		return kindAck
	case protocol.MsgBFT:
		switch m.Inner.(type) {
		case bft.Request:
			return kindBFTRequest
		case bft.PrePrepare:
			return kindBFTPrePrepare
		case bft.Prepare:
			return kindBFTPrepare
		case bft.Commit:
			return kindBFTCommit
		case bft.ViewChange:
			return kindBFTViewChange
		case bft.NewView:
			return kindBFTNewView
		}
	}
	return kindOther
}

// noHandler marks a send or an apply that happened outside any message
// handler (an Invoke thunk or a timer).
const noHandler = -1

// sendSpan is one fabric.Send call: when it was entered and left, and the
// handler (by its start time on the same node) that made it.
type sendSpan struct {
	to         fabric.NodeID
	kind       msgKind
	start, end int64
	handler    int64
}

// handleSpan is one delivery: a handler invocation on the receiving node.
type handleSpan struct {
	from       fabric.NodeID
	kind       msgKind
	start, end int64
}

// applySpan is one switch apply decision seen by the apply hook.
type applySpan struct {
	at      int64
	op      openflow.FlowModOp
	handler int64
}

// nodeTrace holds one node's spans. A node's handlers, thunks and timers
// run on one goroutine, so the mutex is uncontended; it is there for the
// race detector's sake and for Register replacing a handler from outside.
type nodeTrace struct {
	id fabric.NodeID

	mu      sync.Mutex
	sends   []sendSpan
	handles []handleSpan
	applies []applySpan
	// cur is the start of the handler now running on this node.
	cur int64
	// samples keeps one message of each kind this node sent, for the
	// codec and transport micro-benchmarks to replay.
	samples [numKinds]fabric.Message
}

// tracedFabric wraps the fabric handed to core.Build and records a span
// around every call that crosses the seam: each Send and each handler
// invocation. Everything the traced pass knows about the layers comes
// from here, from the apply hook and from the public counters; the
// program itself is not instrumented.
type tracedFabric struct {
	fabric.Fabric
	epoch time.Time
	on    atomic.Bool

	mu    sync.RWMutex
	nodes map[fabric.NodeID]*nodeTrace
}

func newTracedFabric(inner fabric.Fabric) *tracedFabric {
	return &tracedFabric{Fabric: inner, epoch: time.Now(), nodes: make(map[fabric.NodeID]*nodeTrace)}
}

// start and stop bracket the recorded interval. Both are called on a
// drained fabric, so no message is sent inside the interval and delivered
// outside it: the k-th recorded send on a link is the k-th recorded
// delivery on it.
func (t *tracedFabric) start() { t.on.Store(true) }
func (t *tracedFabric) stop()  { t.on.Store(false) }

// since converts a wall time to trace nanoseconds.
func (t *tracedFabric) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracedFabric) now() int64 { return int64(time.Since(t.epoch)) }

// node returns (creating on first use) a node's trace.
func (t *tracedFabric) node(id fabric.NodeID) *nodeTrace {
	t.mu.RLock()
	nt := t.nodes[id]
	t.mu.RUnlock()
	if nt != nil {
		return nt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if nt = t.nodes[id]; nt == nil {
		nt = &nodeTrace{id: id, cur: noHandler}
		t.nodes[id] = nt
	}
	return nt
}

// Register wraps the handler, including one that replaces an earlier
// registration of the same node.
func (t *tracedFabric) Register(id fabric.NodeID, h fabric.Handler) {
	t.Fabric.Register(id, &tracedHandler{t: t, nt: t.node(id), h: h})
}

// Send times the inner Send. On the live backends that is where the wire
// codec runs, so the span is the sender-side cost of the message.
func (t *tracedFabric) Send(from, to fabric.NodeID, msg fabric.Message, size int) {
	if !t.on.Load() {
		t.Fabric.Send(from, to, msg, size)
		return
	}
	nt := t.node(from)
	start := t.now()
	t.Fabric.Send(from, to, msg, size)
	end := t.now()
	kind := classify(msg)
	nt.mu.Lock()
	nt.sends = append(nt.sends, sendSpan{to: to, kind: kind, start: start, end: end, handler: nt.cur})
	if nt.samples[kind] == nil || (kind == kindBFTPrePrepare && prePreparePayload(msg) > prePreparePayload(nt.samples[kind])) {
		nt.samples[kind] = msg
	}
	nt.mu.Unlock()
}

// prePreparePayload is the payload size of a pre-prepare (0 for any other
// message): of all pre-prepares seen, the fullest batch is the sample.
func prePreparePayload(msg fabric.Message) int {
	if m, ok := msg.(protocol.MsgBFT); ok {
		if pp, ok := m.Inner.(bft.PrePrepare); ok {
			return len(pp.Payload)
		}
	}
	return 0
}

// sample returns a recorded message of the kind (nil if none was sent).
func (t *tracedFabric) sample(kind msgKind) fabric.Message {
	var best fabric.Message
	for _, nt := range t.sortedNodes() {
		nt.mu.Lock()
		m := nt.samples[kind]
		nt.mu.Unlock()
		if m != nil && (best == nil || prePreparePayload(m) > prePreparePayload(best)) {
			best = m
		}
	}
	return best
}

// recordApply notes an apply decision on a switch (called from the apply
// hook, which runs inside the switch's handler).
func (t *tracedFabric) recordApply(sw string, op openflow.FlowModOp, at time.Time) {
	if !t.on.Load() {
		return
	}
	nt := t.node(fabric.NodeID(sw))
	nt.mu.Lock()
	nt.applies = append(nt.applies, applySpan{at: t.since(at), op: op, handler: nt.cur})
	nt.mu.Unlock()
}

// tracedHandler records a span around every delivery to one node.
type tracedHandler struct {
	t  *tracedFabric
	nt *nodeTrace
	h  fabric.Handler
}

func (w *tracedHandler) HandleMessage(from fabric.NodeID, msg fabric.Message) {
	if !w.t.on.Load() {
		w.h.HandleMessage(from, msg)
		return
	}
	start := w.t.now()
	w.nt.mu.Lock()
	w.nt.cur = start
	w.nt.mu.Unlock()
	w.h.HandleMessage(from, msg)
	end := w.t.now()
	w.nt.mu.Lock()
	w.nt.cur = noHandler
	w.nt.handles = append(w.nt.handles, handleSpan{from: from, kind: classify(msg), start: start, end: end})
	w.nt.mu.Unlock()
}

// sortedNodes returns the node traces in id order.
func (t *tracedFabric) sortedNodes() []*nodeTrace {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*nodeTrace, 0, len(t.nodes))
	for _, nt := range t.nodes {
		out = append(out, nt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// transit is one matched message: how long it took from entering Send to
// the start of its handler (transport plus mailbox wait).
type transit struct {
	kind msgKind
	ns   int64
}

// matchLinks pairs sends with deliveries. Every live backend keeps each
// (from, to) link in FIFO order and the benchmark tolerates no loss, so
// the k-th send on a link is the k-th delivery on it; any count mismatch
// is reported instead of guessed around.
func (t *tracedFabric) matchLinks() ([]transit, error) {
	type link struct{ from, to fabric.NodeID }
	sends := make(map[link][]sendSpan)
	nodes := t.sortedNodes()
	for _, nt := range nodes {
		for _, s := range nt.sends {
			l := link{nt.id, s.to}
			sends[l] = append(sends[l], s)
		}
	}
	var out []transit
	delivered := make(map[link]int)
	for _, nt := range nodes {
		for _, h := range nt.handles {
			l := link{h.from, nt.id}
			k := delivered[l]
			delivered[l] = k + 1
			if k >= len(sends[l]) {
				return nil, fmt.Errorf("trace: link %s->%s delivered more messages than the %d it sent", l.from, l.to, len(sends[l]))
			}
			s := sends[l][k]
			if s.kind != h.kind {
				return nil, fmt.Errorf("trace: link %s->%s message %d sent as %s, delivered as %s", l.from, l.to, k, s.kind, h.kind)
			}
			out = append(out, transit{kind: h.kind, ns: h.start - s.start})
		}
	}
	for l, s := range sends {
		if delivered[l] != len(s) {
			return nil, fmt.Errorf("trace: link %s->%s sent %d messages, delivered %d", l.from, l.to, len(s), delivered[l])
		}
	}
	return out, nil
}

// opSpan is one client operation as the dispatcher saw it.
type opSpan struct {
	client  int
	install bool
	// hops is the number of switches on the pair's path.
	hops       int
	start, end time.Time
}

// writeJSONL writes every span as one JSON object per line. parent_ns is
// the start of the handler span on the same node that caused the span.
func (t *tracedFabric) writeJSONL(path string, ops []opSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, op := range ops {
		name := "teardown"
		if op.install {
			name = "install"
		}
		fmt.Fprintf(w, `{"span":"op","name":%q,"client":%d,"hops":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			name, op.client, op.hops, t.since(op.start), t.since(op.end))
	}
	for _, nt := range t.sortedNodes() {
		for _, h := range nt.handles {
			fmt.Fprintf(w, `{"span":"handle","node":%q,"name":%q,"peer":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				nt.id, h.kind, h.from, h.start, h.end)
		}
		for _, s := range nt.sends {
			fmt.Fprintf(w, `{"span":"send","node":%q,"name":%q,"peer":%q,"start_ns":%d,"end_ns":%d,"parent_ns":%d}`+"\n",
				nt.id, s.kind, s.to, s.start, s.end, s.handler)
		}
		for _, a := range nt.applies {
			fmt.Fprintf(w, `{"span":"apply","node":%q,"name":%q,"start_ns":%d,"end_ns":%d,"parent_ns":%d}`+"\n",
				nt.id, a.op, a.at, a.at, a.handler)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
