package livenet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cicero/internal/bft"
	"cicero/internal/fabric"
	"cicero/internal/protocol"
)

// waitFor polls cond until it holds or the deadline passes. Live backends
// are nondeterministic, so tests assert convergence, not instants.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestInProcSerialExecution verifies the per-node serial contract: a
// handler mutating unguarded state must be race-free under -race even
// when many goroutines send concurrently.
func TestInProcSerialExecution(t *testing.T) {
	p := NewInProc(nil)
	defer p.Close()
	count := 0 // deliberately not atomic: serial execution must protect it
	p.Register("n1", fabric.HandlerFunc(func(from fabric.NodeID, msg fabric.Message) {
		count++
	}))
	const senders, per = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			from := fabric.NodeID(fmt.Sprintf("src%d", s))
			for i := 0; i < per; i++ {
				p.Send(from, "n1", i, 8)
			}
		}(s)
	}
	wg.Wait()
	var got int
	waitFor(t, 5*time.Second, func() bool {
		p.InvokeWait("n1", func() { got = count })
		return got == senders*per
	}, "all messages delivered")
	st := p.Stats()
	if st.Sent != senders*per || st.Delivered != senders*per {
		t.Fatalf("stats: %+v", st)
	}
}

// TestInProcStrictCodec verifies strict mode round-trips messages through
// the wire codec in flight, and rejects unregistered types.
func TestInProcStrictCodec(t *testing.T) {
	p := NewInProc(protocol.NewWireCodec(nil))
	defer p.Close()
	var mu sync.Mutex
	var got []fabric.Message
	p.Register("n1", fabric.HandlerFunc(func(from fabric.NodeID, msg fabric.Message) {
		mu.Lock()
		got = append(got, msg)
		mu.Unlock()
	}))
	p.Send("n0", "n1", protocol.MsgHeartbeat{Seq: 9}, 64)
	p.Send("n0", "n1", struct{ X int }{1}, 64) // not wire-encodable: dropped
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	}, "heartbeat delivery")
	mu.Lock()
	hb, ok := got[0].(protocol.MsgHeartbeat)
	mu.Unlock()
	if !ok || hb.Seq != 9 {
		t.Fatalf("got %#v", got[0])
	}
	if st := p.Stats(); st.DroppedUnknown != 1 || st.Bytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestInProcFaults verifies the crash/partition drop rules and timer
// suppression.
func TestInProcFaults(t *testing.T) {
	p := NewInProc(nil)
	defer p.Close()
	deliveries := make(chan fabric.NodeID, 16)
	for _, id := range []fabric.NodeID{"a", "b", "c"} {
		id := id
		p.Register(id, fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {
			deliveries <- id
		}))
	}
	p.Crash("b")
	p.Partition("a", "c")
	p.Send("a", "b", 1, 8) // dropped: crashed
	p.Send("a", "c", 1, 8) // dropped: partitioned
	p.Send("c", "a", 1, 8) // dropped: partition is bidirectional
	p.Send("b", "a", 1, 8) // delivered: crash only blocks inbound
	if got := <-deliveries; got != "a" {
		t.Fatalf("delivered to %s", got)
	}
	timerRan := make(chan struct{})
	p.After("b", time.Millisecond, func() { close(timerRan) }) // suppressed
	p.Restart("b")
	p.Heal("a", "c")
	p.Send("a", "b", 2, 8)
	p.Send("a", "c", 2, 8)
	for i := 0; i < 2; i++ {
		<-deliveries
	}
	select {
	case <-timerRan:
		t.Fatal("timer ran on a crashed node")
	default:
	}
	st := p.Stats()
	if st.DroppedCrash != 1 || st.DroppedPartition != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDelayedCopySurvivesRestart: a copy the fault plane delays past a
// crash and restart of its destination is delivered, as to a node that
// never crashed. The destination is judged when the copy lands, and on tcp
// the copy takes the restarted node's new link, not the one the crash
// closed.
func TestDelayedCopySurvivesRestart(t *testing.T) {
	for _, backend := range []string{"inproc", "tcp"} {
		t.Run(backend, func(t *testing.T) {
			fab, err := Open(backend, protocol.NewWireCodec(nil))
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close()
			var got atomic.Uint64
			fab.Register("a", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {}))
			fab.Register("b", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) { got.Add(1) }))
			fab.SetFilter(func(fabric.NodeID, fabric.NodeID, fabric.Message, int) fabric.FaultAction {
				return fabric.FaultAction{Delay: 100 * time.Millisecond}
			})
			fab.Send("a", "b", protocol.MsgHeartbeat{Seq: 1}, 8)
			fab.Crash("b")
			fab.Restart("b")
			waitFor(t, 5*time.Second, func() bool { return got.Load() == 1 }, "the delayed copy")
			st := fab.Stats()
			if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
				t.Fatalf("stats %+v, want one sent and delivered, none dropped", st)
			}
		})
	}
}

// TestTCPRoundTrip sends protocol messages across real sockets and checks
// delivery, sender identity, and wire accounting.
func TestTCPRoundTrip(t *testing.T) {
	f, err := NewTCP(protocol.NewWireCodec(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var mu sync.Mutex
	byFrom := make(map[fabric.NodeID]int)
	f.Register("s1", fabric.HandlerFunc(func(from fabric.NodeID, msg fabric.Message) {
		if _, ok := msg.(protocol.MsgHeartbeat); !ok {
			t.Errorf("unexpected message %T", msg)
		}
		mu.Lock()
		byFrom[from]++
		mu.Unlock()
	}))
	f.Register("c1", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {}))
	f.Register("c2", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {}))
	if f.Addr("s1") == "" {
		t.Fatal("no listen address for s1")
	}
	const per = 50
	for i := 0; i < per; i++ {
		f.Send("c1", "s1", protocol.MsgHeartbeat{Seq: uint64(i)}, 0)
		f.Send("c2", "s1", protocol.MsgHeartbeat{Seq: uint64(i)}, 0)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return byFrom["c1"] == per && byFrom["c2"] == per
	}, "tcp deliveries")
	st := f.Stats()
	if st.Bytes == 0 || st.Delivered != 2*per {
		t.Fatalf("stats: %+v", st)
	}
}

// TestTCPReconnect breaks the cached connection under the sender and
// checks the next Send transparently redials.
func TestTCPReconnect(t *testing.T) {
	f, err := NewTCP(protocol.NewWireCodec(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make(chan uint64, 4)
	f.Register("s1", fabric.HandlerFunc(func(_ fabric.NodeID, msg fabric.Message) {
		got <- msg.(protocol.MsgHeartbeat).Seq
	}))
	f.Send("c1", "s1", protocol.MsgHeartbeat{Seq: 1}, 0)
	if seq := <-got; seq != 1 {
		t.Fatalf("first delivery: seq %d", seq)
	}
	// Sever the cached connection out from under the link's writer.
	l, err := f.link("c1", "s1")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return l.currentConn() != nil },
		"link to establish a connection")
	l.currentConn().Close()
	// The next send hits the dead socket and must reconnect. A close is
	// not always synchronously visible to the first write (the kernel can
	// buffer it), so allow a retry send.
	waitFor(t, 5*time.Second, func() bool {
		f.Send("c1", "s1", protocol.MsgHeartbeat{Seq: 2}, 0)
		select {
		case <-got:
			return true
		default:
			time.Sleep(10 * time.Millisecond)
			return false
		}
	}, "delivery after reconnect")
}

// TestTCPReconnectRacesPartitionHeal is the regression test for a
// reconnect racing a partition heal: the link's connection dies while
// the pair is partitioned (so the writer's redial overlaps the logical
// fault window), and delivery must resume promptly once the partition
// heals — no stale cached connection outlives the heal.
func TestTCPReconnectRacesPartitionHeal(t *testing.T) {
	res := defaultResilience
	res.dialTimeout = 200 * time.Millisecond
	res.backoff = backoff{base: 2 * time.Millisecond, max: 20 * time.Millisecond, factor: 2, jitter: 0.5}
	f, err := newTCPWith(res)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var delivered atomic.Uint64
	f.Register("s1", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {
		delivered.Add(1)
	}))

	stop := make(chan struct{})
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		var seq uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			f.Send("c1", "s1", protocol.MsgHeartbeat{Seq: seq}, 0)
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() {
		close(stop)
		<-senderDone
	}()

	waitFor(t, 5*time.Second, func() bool { return delivered.Load() > 10 },
		"initial deliveries")

	// Partition, then sever the live socket mid-window so the writer's
	// reconnect machinery runs while the logical fault is still up.
	f.Partition("c1", "s1")
	atPartition := f.Stats().DroppedPartition
	waitFor(t, 5*time.Second, func() bool {
		return f.Stats().DroppedPartition > atPartition+5
	}, "sends to drop during the partition")
	l, err := f.link("c1", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if conn := l.currentConn(); conn != nil {
		conn.Close()
	}

	f.Heal("c1", "s1")
	atHeal := delivered.Load()
	waitFor(t, 10*time.Second, func() bool { return delivered.Load() > atHeal+10 },
		"delivery to resume after the heal")
}

// TestBFTOverInProc runs a real 4-replica Byzantine atomic broadcast on
// the in-process backend — the fabric transport adapter, live mailboxes,
// wall-clock timers, and the strict wire codec, all under -race — and
// checks every replica delivers the same payloads in the same order.
func TestBFTOverInProc(t *testing.T) {
	fab := NewInProc(protocol.NewWireCodec(nil))
	defer fab.Close()

	const n = 4
	nodeOf := func(id bft.ReplicaID) fabric.NodeID {
		return fabric.NodeID(fmt.Sprintf("r%d", id))
	}
	ids := make([]bft.ReplicaID, n)
	for i := range ids {
		ids[i] = bft.ReplicaID(i + 1)
	}

	replicas := make(map[fabric.NodeID]*bft.Replica, n)
	delivered := make(map[fabric.NodeID][]string, n)
	var mu sync.Mutex // guards delivered across test-side reads

	for _, id := range ids {
		id := id
		self := nodeOf(id)
		rep, err := bft.NewReplica(bft.Config{
			ID:       id,
			Replicas: ids,
			Mode:     bft.ModeByzantine,
			Transport: &bft.FabricTransport{
				Fab:  fab,
				Self: self,
				Peer: func(to bft.ReplicaID) (fabric.NodeID, bool) {
					if int(to) < 1 || int(to) > n {
						return "", false
					}
					return nodeOf(to), true
				},
			},
			Timer: func(d time.Duration, fn func()) { fab.After(self, d, fn) },
			Deliver: func(seq uint64, payload []byte) {
				mu.Lock()
				delivered[self] = append(delivered[self], string(payload))
				mu.Unlock()
			},
			ViewChangeTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas[self] = rep
		fab.Register(self, fabric.HandlerFunc(func(from fabric.NodeID, msg fabric.Message) {
			var fromID bft.ReplicaID
			if _, err := fmt.Sscanf(string(from), "r%d", &fromID); err != nil {
				t.Errorf("bad sender id %q", from)
				return
			}
			rep.Handle(fromID, msg)
		}))
	}

	const payloads = 20
	for i := 0; i < payloads; i++ {
		// Submit through the replica's own serial context, as the control
		// plane does; rotate the submitting replica.
		self := nodeOf(ids[i%n])
		rep := replicas[self]
		payload := []byte(fmt.Sprintf("op-%02d", i))
		fab.Invoke(self, func() { rep.Submit(payload) })
	}

	waitFor(t, 20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, id := range ids {
			if len(delivered[nodeOf(id)]) < payloads {
				return false
			}
		}
		return true
	}, "all replicas delivering all payloads")

	mu.Lock()
	defer mu.Unlock()
	ref := delivered[nodeOf(ids[0])]
	for _, id := range ids[1:] {
		got := delivered[nodeOf(id)]
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("replica %d diverges at %d: %q vs %q", id, i, got[i], ref[i])
			}
		}
	}
	if len(ref) != payloads {
		t.Fatalf("delivered %d payloads, want %d", len(ref), payloads)
	}
}
