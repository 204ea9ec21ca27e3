package simnet

import (
	"errors"
	"testing"
	"time"

	"cicero/internal/fabric"
)

func TestSimulatorOrdersEventsByTime(t *testing.T) {
	sim := NewSimulator(1)
	var order []int
	sim.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	sim.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	sim.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	end, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 30*time.Millisecond {
		t.Errorf("final time %v, want 30ms", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order %v, want [1 2 3]", order)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	sim := NewSimulator(1)
	var order []int
	at := 5 * time.Millisecond
	for i := 0; i < 10; i++ {
		i := i
		sim.Schedule(at, func() { order = append(order, i) })
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	sim := NewSimulator(1)
	var hits []Time
	sim.Schedule(time.Millisecond, func() {
		hits = append(hits, sim.Now())
		sim.Schedule(2*time.Millisecond, func() {
			hits = append(hits, sim.Now())
		})
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0] != time.Millisecond || hits[1] != 3*time.Millisecond {
		t.Fatalf("hits = %v", hits)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	sim := NewSimulator(1)
	ran := 0
	sim.Schedule(time.Millisecond, func() { ran++ })
	sim.Schedule(time.Hour, func() { ran++ })
	now, err := sim.RunUntil(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Errorf("ran %d events, want 1", ran)
	}
	if now != time.Second {
		t.Errorf("now = %v, want 1s", now)
	}
	if sim.pending.Len() != 1 {
		t.Errorf("pending = %d, want 1", sim.pending.Len())
	}
}

func TestEventBudget(t *testing.T) {
	sim := NewSimulator(1)
	sim.MaxEvents = 100
	var loop func()
	loop = func() { sim.Schedule(time.Microsecond, loop) }
	loop()
	if _, err := sim.Run(); !errors.Is(err, ErrEventBudget) {
		t.Fatalf("expected ErrEventBudget, got %v", err)
	}
}

func TestNetworkDelivery(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, 2*time.Millisecond)
	var got []string
	var at Time
	net.Register("a", fabric.HandlerFunc(func(from NodeID, msg Message) {}))
	net.Register("b", fabric.HandlerFunc(func(from NodeID, msg Message) {
		got = append(got, msg.(string))
		at = sim.Now()
	}))
	net.Send("a", "b", "hello", 100)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("got %v", got)
	}
	if at != 2*time.Millisecond {
		t.Errorf("delivered at %v, want 2ms", at)
	}
}

func TestPerPairLatency(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, time.Millisecond)
	net.Latency = func(from, to NodeID) time.Duration {
		if from == "a" && to == "c" {
			return 10 * time.Millisecond
		}
		return -1 // fall back to default
	}
	var bAt, cAt Time
	net.Register("a", fabric.HandlerFunc(func(NodeID, Message) {}))
	net.Register("b", fabric.HandlerFunc(func(NodeID, Message) { bAt = sim.Now() }))
	net.Register("c", fabric.HandlerFunc(func(NodeID, Message) { cAt = sim.Now() }))
	net.Send("a", "b", 1, 0)
	net.Send("a", "c", 2, 0)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if bAt != time.Millisecond {
		t.Errorf("b at %v, want 1ms (default)", bAt)
	}
	if cAt != 10*time.Millisecond {
		t.Errorf("c at %v, want 10ms (override)", cAt)
	}
}

func TestCrashDropsMessagesAndTimers(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, time.Millisecond)
	delivered := 0
	timerFired := false
	net.Register("a", fabric.HandlerFunc(func(NodeID, Message) {}))
	net.Register("b", fabric.HandlerFunc(func(NodeID, Message) { delivered++ }))
	net.After("b", 5*time.Millisecond, func() { timerFired = true })
	net.Crash("b")
	net.Send("a", "b", 1, 0)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Error("crashed node received a message")
	}
	if timerFired {
		t.Error("crashed node's timer fired")
	}
	if net.Stats().Dropped == 0 {
		t.Error("drop not accounted")
	}
}

func TestRecoverRestoresDelivery(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, time.Millisecond)
	delivered := 0
	net.Register("a", fabric.HandlerFunc(func(NodeID, Message) {}))
	net.Register("b", fabric.HandlerFunc(func(NodeID, Message) { delivered++ }))
	net.Crash("b")
	net.Recover("b")
	net.Send("a", "b", 1, 0)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1", delivered)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, time.Millisecond)
	delivered := 0
	net.Register("a", fabric.HandlerFunc(func(NodeID, Message) { delivered++ }))
	net.Register("b", fabric.HandlerFunc(func(NodeID, Message) { delivered++ }))
	net.Partition("a", "b")
	net.Send("a", "b", 1, 0)
	net.Send("b", "a", 2, 0)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Error("partitioned messages were delivered")
	}
	net.Heal("a", "b")
	net.Send("a", "b", 3, 0)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered after heal = %d, want 1", delivered)
	}
}

func TestChargeDelaysProcessingAndAccumulates(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, time.Millisecond)
	var deliveredAt []Time
	net.Register("a", fabric.HandlerFunc(func(NodeID, Message) {}))
	net.Register("b", fabric.HandlerFunc(func(from NodeID, msg Message) {
		deliveredAt = append(deliveredAt, sim.Now())
		net.Charge("b", 5*time.Millisecond)
	}))
	net.Send("a", "b", 1, 0) // arrives at 1ms, charges until 6ms
	net.Send("a", "b", 2, 0) // arrives at 1ms, should process at 6ms
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(deliveredAt) != 2 {
		t.Fatalf("delivered %d, want 2", len(deliveredAt))
	}
	if deliveredAt[0] != time.Millisecond {
		t.Errorf("first at %v, want 1ms", deliveredAt[0])
	}
	if deliveredAt[1] != 6*time.Millisecond {
		t.Errorf("second at %v, want 6ms (queued behind CPU)", deliveredAt[1])
	}
	if got := net.BusyTotal("b"); got != 10*time.Millisecond {
		t.Errorf("BusyTotal = %v, want 10ms", got)
	}
}

func TestBusySenderDelaysEmission(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, time.Millisecond)
	var at Time
	net.Register("a", fabric.HandlerFunc(func(NodeID, Message) {}))
	net.Register("b", fabric.HandlerFunc(func(NodeID, Message) { at = sim.Now() }))
	net.Charge("a", 4*time.Millisecond)
	net.Send("a", "b", 1, 0) // departs at 4ms, arrives at 5ms
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Millisecond {
		t.Errorf("delivered at %v, want 5ms", at)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		sim := NewSimulator(42)
		net := NewNetwork(sim, time.Millisecond)
		net.JitterFrac = 0.3
		var times []Time
		net.Register("a", fabric.HandlerFunc(func(NodeID, Message) {}))
		net.Register("b", fabric.HandlerFunc(func(NodeID, Message) { times = append(times, sim.Now()) }))
		for i := 0; i < 20; i++ {
			net.Send("a", "b", i, 100)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	first := run()
	second := run()
	if len(first) != len(second) {
		t.Fatal("different event counts across identical runs")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("nondeterministic delivery time at %d: %v vs %v", i, first[i], second[i])
		}
	}
}

func TestSendToUnknownNodeIsDropped(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, time.Millisecond)
	net.Register("a", fabric.HandlerFunc(func(NodeID, Message) {}))
	net.Send("a", "ghost", 1, 0)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if net.Stats().Dropped != 1 {
		t.Errorf("dropped = %d, want 1", net.Stats().Dropped)
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, time.Millisecond)
	net.Register("a", fabric.HandlerFunc(func(NodeID, Message) {}))
	net.Register("b", fabric.HandlerFunc(func(NodeID, Message) {}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send("a", "b", i, 128)
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
