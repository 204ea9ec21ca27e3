package main

import (
	"testing"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/protocol"
)

// queueFabric holds every message until the test delivers it, so the
// test decides how deliveries on different links interleave.
type queueFabric struct {
	handlers map[fabric.NodeID]fabric.Handler
	pending  []queued
}

type queued struct {
	from, to fabric.NodeID
	msg      fabric.Message
}

func (f *queueFabric) Register(id fabric.NodeID, h fabric.Handler) { f.handlers[id] = h }
func (f *queueFabric) Send(from, to fabric.NodeID, msg fabric.Message, _ int) {
	f.pending = append(f.pending, queued{from, to, msg})
}
func (f *queueFabric) After(fabric.NodeID, time.Duration, func())    {}
func (f *queueFabric) Invoke(_ fabric.NodeID, fn func())             { fn() }
func (f *queueFabric) Charge(fabric.NodeID, time.Duration)           {}
func (f *queueFabric) BusyTotal(fabric.NodeID) time.Duration         { return 0 }
func (f *queueFabric) Now() fabric.Time                              { return 0 }
func (f *queueFabric) Crashed(fabric.NodeID) bool                    { return false }
func (f *queueFabric) Partitioned(fabric.NodeID, fabric.NodeID) bool { return false }
func (f *queueFabric) Stats() fabric.Stats                           { return fabric.Stats{} }

// deliver hands over the i-th pending message.
func (f *queueFabric) deliver(i int) {
	q := f.pending[i]
	f.pending = append(f.pending[:i], f.pending[i+1:]...)
	f.handlers[q.to].HandleMessage(q.from, q.msg)
}

func TestTraceMatchesSendsToDeliveriesPerLink(t *testing.T) {
	inner := &queueFabric{handlers: make(map[fabric.NodeID]fabric.Handler)}
	tr := newTracedFabric(inner)
	var got []string
	tr.Register("b", fabric.HandlerFunc(func(from fabric.NodeID, _ fabric.Message) { got = append(got, "old:"+string(from)) }))
	tr.start()
	tr.Send("a", "b", protocol.MsgUpdate{}, 1)
	tr.Send("c", "b", protocol.MsgAck{}, 1)
	tr.Send("a", "b", protocol.MsgEvent{}, 1)
	// The two links interleave differently on delivery than on sending;
	// each link on its own stays first-in first-out.
	inner.deliver(1) // c->b ack
	inner.deliver(0) // a->b update
	// A restarted node registers a new handler; it must be traced too.
	tr.Register("b", fabric.HandlerFunc(func(from fabric.NodeID, _ fabric.Message) {
		got = append(got, "new:"+string(from))
		tr.Send("b", "a", protocol.MsgAck{}, 1) // a send caused by this handler
	}))
	inner.deliver(0) // a->b event
	tr.stop()
	tr.Send("a", "b", protocol.MsgUpdate{}, 1) // outside the recorded interval

	if want := []string{"old:c", "old:a", "new:a"}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("handlers saw %v, want %v", got, want)
	}
	b := tr.node("b")
	if len(b.handles) != 3 || len(tr.node("a").sends) != 2 || len(tr.node("c").sends) != 1 {
		t.Fatalf("recorded %d deliveries at b, %d sends at a, %d at c; want 3, 2, 1",
			len(b.handles), len(tr.node("a").sends), len(tr.node("c").sends))
	}
	if caused := b.sends[0]; caused.handler != b.handles[2].start {
		t.Errorf("send made inside the replaced handler has parent %d, want %d", caused.handler, b.handles[2].start)
	}
	if outside := tr.node("a").sends[0]; outside.handler != noHandler {
		t.Errorf("send made outside any handler has parent %d", outside.handler)
	}

	// b->a was sent but never delivered: matching must say so.
	if _, err := tr.matchLinks(); err == nil {
		t.Fatal("matchLinks accepted a link with an undelivered message")
	}
	tr.start()
	inner.handlers["a"] = fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {})
	tr.Register("a", inner.handlers["a"])
	inner.deliver(0) // b->a ack
	tr.stop()
	transits, err := tr.matchLinks()
	if err != nil {
		t.Fatal(err)
	}
	a, c := tr.node("a"), tr.node("c")
	want := map[transit]bool{
		{kindAck, b.handles[0].start - c.sends[0].start}:    true, // c->b, delivered first
		{kindUpdate, b.handles[1].start - a.sends[0].start}: true, // a->b, first of its link
		{kindEvent, b.handles[2].start - a.sends[1].start}:  true, // a->b, second of its link
		{kindAck, a.handles[0].start - b.sends[0].start}:    true, // b->a
	}
	if len(transits) != len(want) {
		t.Fatalf("matched %d messages, want %d", len(transits), len(want))
	}
	for _, x := range transits {
		if !want[x] {
			t.Errorf("unexpected match %s with transit %d ns", x.kind, x.ns)
		}
		if x.ns < 0 {
			t.Errorf("%s transit is negative: %d ns", x.kind, x.ns)
		}
	}
}

func TestTraceRejectsKindMismatch(t *testing.T) {
	inner := &queueFabric{handlers: make(map[fabric.NodeID]fabric.Handler)}
	tr := newTracedFabric(inner)
	tr.Register("b", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {}))
	tr.start()
	tr.Send("a", "b", protocol.MsgUpdate{}, 1)
	tr.Send("a", "b", protocol.MsgAck{}, 1)
	inner.deliver(1) // a link that reorders breaks the FIFO assumption
	inner.deliver(0)
	tr.stop()
	if _, err := tr.matchLinks(); err == nil {
		t.Fatal("matchLinks accepted a reordered link")
	}
}
