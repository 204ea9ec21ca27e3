package simnet

import (
	"testing"
	"time"

	"cicero/internal/fabric"
)

// collector registers a node that records every delivered message.
func collector(net *Network, id NodeID) *[]Message {
	var got []Message
	net.Register(id, fabric.HandlerFunc(func(from NodeID, msg Message) {
		got = append(got, msg)
	}))
	return &got
}

func TestPartitionOneWayIsAsymmetric(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, time.Millisecond)
	gotA := collector(net, "a")
	gotB := collector(net, "b")

	net.PartitionOneWay("a", "b")
	if !net.partitioned["a"]["b"] || net.partitioned["b"]["a"] {
		t.Fatalf("one-way partition should block a->b only")
	}
	net.Send("a", "b", "a-to-b", 10)
	net.Send("b", "a", "b-to-a", 10)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*gotB) != 0 {
		t.Errorf("b received %v across a one-way partition", *gotB)
	}
	if len(*gotA) != 1 {
		t.Errorf("a should still receive from b, got %v", *gotA)
	}

	net.HealOneWay("a", "b")
	net.Send("a", "b", "after-heal", 10)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*gotB) != 1 {
		t.Errorf("b should receive after heal, got %v", *gotB)
	}
	st := net.Stats()
	if st.DroppedPartition != 1 || st.Dropped != 1 {
		t.Errorf("stats = %+v, want exactly one partition drop", st)
	}
}

func TestPartitionSetSeversGroupsBothWays(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, time.Millisecond)
	ids := []NodeID{"a1", "a2", "b1", "b2"}
	got := make(map[NodeID]*[]Message)
	for _, id := range ids {
		got[id] = collector(net, id)
	}
	groupA, groupB := []NodeID{"a1", "a2"}, []NodeID{"b1", "b2"}
	for _, a := range groupA {
		for _, b := range groupB {
			net.Partition(a, b)
		}
	}

	// Cross-group traffic is blocked in both directions...
	net.Send("a1", "b1", "x", 1)
	net.Send("b2", "a2", "x", 1)
	// ...intra-group traffic still flows.
	net.Send("a1", "a2", "intra-a", 1)
	net.Send("b1", "b2", "intra-b", 1)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got["b1"]) != 0 || len(*got["a2"]) != 1 {
		t.Errorf("cross traffic leaked: b1=%v a2=%v", *got["b1"], *got["a2"])
	}
	if len(*got["b2"]) != 1 {
		t.Errorf("intra-group traffic blocked: b2=%v", *got["b2"])
	}

	for _, a := range groupA {
		for _, b := range groupB {
			net.Heal(a, b)
		}
	}
	net.Send("a1", "b1", "healed", 1)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got["b1"]) != 1 {
		t.Errorf("heal did not restore cross traffic: b1=%v", *got["b1"])
	}
}

func TestFilterDropDelayDuplicateReplace(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, time.Millisecond)
	got := collector(net, "dst")
	var arrivals []Time
	net.Register("dst", fabric.HandlerFunc(func(from NodeID, msg Message) {
		*got = append(*got, msg)
		arrivals = append(arrivals, sim.Now())
	}))
	net.Register("src", fabric.HandlerFunc(func(NodeID, Message) {}))

	net.SetFilter(func(from, to NodeID, msg Message, size int) fabric.FaultAction {
		switch msg {
		case "drop-me":
			return fabric.FaultAction{Drop: true}
		case "delay-me":
			return fabric.FaultAction{Delay: 5 * time.Millisecond}
		case "dup-me":
			return fabric.FaultAction{Duplicates: 2}
		case "corrupt-me":
			return fabric.FaultAction{Replace: "corrupted"}
		}
		return fabric.FaultAction{}
	})

	net.Send("src", "dst", "drop-me", 10)
	net.Send("src", "dst", "delay-me", 10)
	net.Send("src", "dst", "dup-me", 10)
	net.Send("src", "dst", "corrupt-me", 10)
	net.Send("src", "dst", "plain", 10)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	count := map[Message]int{}
	for _, m := range *got {
		count[m]++
	}
	if count["drop-me"] != 0 {
		t.Errorf("dropped message was delivered")
	}
	if count["dup-me"] != 3 {
		t.Errorf("duplicated message delivered %d times, want 3", count["dup-me"])
	}
	if count["corrupt-me"] != 0 || count["corrupted"] != 1 {
		t.Errorf("replace failed: %v", count)
	}
	if count["delay-me"] != 1 {
		t.Errorf("delayed message delivered %d times, want 1", count["delay-me"])
	}
	// The delayed message must arrive 5ms after the base link latency.
	var delayedAt Time
	for i, m := range *got {
		if m == "delay-me" {
			delayedAt = arrivals[i]
		}
	}
	if delayedAt != 6*time.Millisecond {
		t.Errorf("delayed arrival %v, want 6ms", delayedAt)
	}

	st := net.Stats()
	if st.DroppedInjected != 1 {
		t.Errorf("DroppedInjected = %d, want 1", st.DroppedInjected)
	}
	// 5 sends + 2 injected duplicates.
	if st.Sent != 7 {
		t.Errorf("Sent = %d, want 7", st.Sent)
	}
	if st.Delivered != 6 {
		t.Errorf("Delivered = %d, want 6", st.Delivered)
	}

	// Removing the filter restores normal delivery.
	net.SetFilter(nil)
	net.Send("src", "dst", "drop-me", 10)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	count = map[Message]int{}
	for _, m := range *got {
		count[m]++
	}
	if count["drop-me"] != 1 {
		t.Errorf("filter removal did not restore delivery")
	}
}

func TestDropCauseCounters(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, time.Millisecond)
	collector(net, "a")
	collector(net, "b")

	net.Send("a", "ghost", "x", 1) // unknown destination
	net.Partition("a", "b")
	net.Send("a", "b", "x", 1) // partitioned
	net.Heal("a", "b")
	net.Crash("b")
	net.Send("a", "b", "x", 1) // crashed at delivery time
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	st := net.Stats()
	if st.DroppedUnknown != 1 || st.DroppedPartition != 1 || st.DroppedCrash != 1 {
		t.Errorf("cause counters = %+v", st)
	}
	if st.Dropped != st.DroppedUnknown+st.DroppedPartition+st.DroppedCrash+st.DroppedInjected {
		t.Errorf("cause counters do not sum to Dropped: %+v", st)
	}
}

// TestCrashBehindBusyReceiverIsACrashDrop: a message that lands on a busy
// receiver waits for it, and if the receiver crashes before the message
// runs, no handler sees it and the books count a crash drop.
func TestCrashBehindBusyReceiverIsACrashDrop(t *testing.T) {
	sim := NewSimulator(1)
	net := NewNetwork(sim, time.Millisecond)
	collector(net, "a")
	got := collector(net, "b")
	net.Charge("b", 10*time.Millisecond)                  // b is busy until 10 ms
	net.Send("a", "b", "queued", 1)                       // lands at 1 ms and waits for b
	sim.At(5*time.Millisecond, func() { net.Crash("b") }) // b crashes before it is free
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := Stats{Sent: 1, Dropped: 1, Bytes: 1, DroppedCrash: 1}
	if st := net.Stats(); st != want || len(*got) != 0 {
		t.Errorf("stats = %+v and b handled %v, want %+v and nothing", st, *got, want)
	}
}
