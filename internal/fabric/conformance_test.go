package fabric_test

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
)

// The seam's contract, stated once and run against every backend: what the
// protocol code and the drivers in internal/core may assume of any
// fabric.Fabric, whichever carries the messages.

// faulty is a fabric plus the two fault actuators the contract mentions.
type faulty interface {
	fabric.Fabric
	Crash(id fabric.NodeID)
	Partition(a, b fabric.NodeID)
}

// backend is one fabric under test. sim is the simulator under it, where
// nothing happens until step runs the event loop to idle; live backends
// (sim nil) run by themselves.
type backend struct {
	faulty
	sim *simnet.Simulator
}

func (b backend) step(t *testing.T) {
	t.Helper()
	if b.sim == nil {
		return
	}
	if _, err := b.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// wait bounds every wait for something a live backend does by itself.
const wait = 5 * time.Second

var backends = []struct {
	name string
	open func(t *testing.T) backend
}{
	{"simnet", func(t *testing.T) backend {
		sim := simnet.NewSimulator(1)
		return backend{simnet.NewNetwork(sim, time.Millisecond), sim}
	}},
	{"inproc", func(t *testing.T) backend {
		fab := livenet.NewInProc(protocol.NewWireCodec(nil))
		t.Cleanup(fab.Close)
		return backend{faulty: fab}
	}},
	{"tcp", func(t *testing.T) backend {
		fab, err := livenet.NewTCP(protocol.NewWireCodec(nil))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fab.Close)
		return backend{faulty: fab}
	}},
}

// eventually steps the backend and polls cond until it holds.
func (b backend) eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	b.step(t)
	for deadline := time.Now().Add(wait); !cond(); time.Sleep(time.Millisecond) {
		if b.sim != nil || time.Now().After(deadline) {
			t.Fatalf("%s: not after %v (stats %+v)", what, wait, b.Stats())
		}
	}
}

// on runs fn in the node's context through the seam's own InvokeWait.
func (b backend) on(t *testing.T, id fabric.NodeID, fn func()) {
	t.Helper()
	if err := fabric.InvokeWait(b, id, fn, wait); err != nil {
		t.Fatal(err)
	}
}

// ping is the wire-encodable message the tests send; Seq tells them apart.
func ping(seq uint64) fabric.Message { return protocol.MsgHeartbeat{Seq: seq} }

// counter is a handler that counts what it is handed.
type counter struct{ n atomic.Int64 }

func (c *counter) HandleMessage(fabric.NodeID, fabric.Message) { c.n.Add(1) }

var conformance = []struct {
	property string
	check    func(t *testing.T, b backend)
}{
	// Register on an existing id replaces its handler.
	{"register-replaces", func(t *testing.T, b backend) {
		var first, second counter
		b.Register("a", &first)
		b.Register("a", &second)
		b.Register("b", &counter{})
		b.Send("b", "a", ping(1), 8)
		b.eventually(t, "delivery to the second handler", func() bool { return second.n.Load() == 1 })
		if first.n.Load() != 0 {
			t.Errorf("the replaced handler was handed %d messages", first.n.Load())
		}
	}},

	// A send that cannot arrive lands in the Dropped bucket of its cause.
	{"drops-by-cause", func(t *testing.T, b backend) {
		for _, id := range []fabric.NodeID{"a", "b", "crashed"} {
			b.Register(id, &counter{})
		}
		b.Crash("crashed")
		b.Partition("a", "b")
		if !b.Crashed("crashed") || b.Crashed("a") {
			t.Errorf("Crashed: crashed=%v a=%v", b.Crashed("crashed"), b.Crashed("a"))
		}
		b.Send("a", "nobody", ping(1), 8)
		b.Send("a", "crashed", ping(2), 8)
		b.Send("a", "b", ping(3), 8)
		b.Send("b", "a", ping(4), 8)
		b.eventually(t, "four drops", func() bool { return b.Stats().Dropped == 4 })
		want := fabric.Stats{Sent: 4, Dropped: 4, DroppedUnknown: 1, DroppedCrash: 1, DroppedPartition: 2}
		got := b.Stats()
		got.Bytes = 0 // model estimate on the simulator, encoded bytes on a wire
		if got != want {
			t.Errorf("stats = %+v, want %+v", got, want)
		}
	}},

	// After is suppressed on a crashed node.
	{"after-on-crashed", func(t *testing.T, b backend) {
		b.Register("crashed", &counter{})
		b.Register("a", &counter{})
		b.Crash("crashed")
		fired, later := false, make(chan struct{})
		b.After("crashed", time.Millisecond, func() { fired = true })
		b.After("a", 30*time.Millisecond, func() { close(later) })
		b.eventually(t, "the later timer of a healthy node", func() bool {
			select {
			case <-later:
				return true
			default:
				return false
			}
		})
		b.on(t, "crashed", func() {
			if fired {
				t.Error("a timer fired on a crashed node")
			}
		})
	}},

	// Invoke runs on a crashed node, and before it returns on an idle
	// simulator.
	{"invoke-on-crashed", func(t *testing.T, b backend) {
		b.Register("a", &counter{})
		b.Crash("a")
		ran := false
		b.Invoke("a", func() { ran = true })
		if b.sim != nil && !ran {
			t.Error("Invoke returned on an idle simulator before the thunk ran")
		}
		b.on(t, "a", func() {
			if !ran {
				t.Error("a later thunk ran before the first")
			}
		})
	}},

	// InvokeWait returns once the thunk ran, on every backend.
	{"invokewait", func(t *testing.T, b backend) {
		b.Register("a", &counter{})
		ran := false
		if err := fabric.InvokeWait(b, "a", func() { ran = true }, wait); err != nil || !ran {
			t.Fatalf("InvokeWait = %v, thunk ran: %v", err, ran)
		}
	}},

	// A thunk never runs beside a delivery: it waits for the one under way.
	{"thunk-after-delivery", func(t *testing.T, b backend) {
		var log []string
		started := make(chan struct{})
		b.Register("a", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {
			close(started)
			time.Sleep(20 * time.Millisecond)
			log = append(log, "message")
		}))
		b.Register("b", &counter{})
		b.Send("b", "a", ping(1), 8)
		b.step(t)
		select {
		case <-started:
		case <-time.After(wait):
			t.Fatal("no delivery")
		}
		b.on(t, "a", func() { log = append(log, "thunk") })
		if want := []string{"message", "thunk"}; !slices.Equal(log, want) {
			t.Errorf("node a ran %v, want %v", log, want)
		}
	}},

	// Charge adds up in BusyTotal.
	{"charge", func(t *testing.T, b backend) {
		b.Register("a", &counter{})
		b.Charge("a", 3*time.Millisecond)
		b.Charge("a", 2*time.Millisecond)
		b.Charge("nobody", time.Millisecond)
		if got, stranger := b.BusyTotal("a"), b.BusyTotal("nobody"); got != 5*time.Millisecond || stranger != 0 {
			t.Errorf("BusyTotal = %v for a, %v for an unregistered node; want 5ms and 0", got, stranger)
		}
	}},

	// What core.Network.Settle rests on. Every node forwards a ping around
	// the ring until its hop count runs out, some sends go nowhere, and
	// once the handlers have seen every delivery that will ever happen the
	// books balance, to the message.
	{"books-balance", func(t *testing.T, b backend) {
		ring := []fabric.NodeID{"n0", "n1", "n2", "n3"}
		var handled atomic.Int64
		for i, id := range ring {
			next := ring[(i+1)%len(ring)]
			b.Register(id, fabric.HandlerFunc(func(_ fabric.NodeID, msg fabric.Message) {
				if hops := msg.(protocol.MsgHeartbeat).Seq; hops > 0 {
					b.Send(id, next, ping(hops-1), 8)
					b.Send(id, "nobody", ping(0), 8)
				}
				handled.Add(1)
			}))
		}
		b.Partition("n0", "n2")
		const pings, hops = 8, 9
		for i := 0; i < pings; i++ {
			b.Send("n0", ring[1+i%3], ping(hops), 8) // every third one is partitioned away
		}
		// 8 pings, 3 of them lost to the partition (i = 1, 4, 7); each of
		// the other 5 is handled hops+1 times and spawns hops sends to
		// nobody on its way.
		const delivered, dropped = 5 * (hops + 1), 3 + 5*hops
		b.eventually(t, "every ping handled to its last hop", func() bool { return handled.Load() == delivered })
		for _, id := range ring {
			b.on(t, id, func() {}) // the last handler has returned
		}
		st := b.Stats()
		if st.Sent != st.Delivered+st.Dropped || st.Delivered != delivered || st.Dropped != dropped {
			t.Errorf("at rest: sent %d, delivered %d, dropped %d; want %d = %d + %d",
				st.Sent, st.Delivered, st.Dropped, delivered+dropped, delivered, dropped)
		}
	}},
}

func TestConformance(t *testing.T) {
	for _, b := range backends {
		for _, c := range conformance {
			t.Run(b.name+"/"+c.property, func(t *testing.T) { c.check(t, b.open(t)) })
		}
	}
}
