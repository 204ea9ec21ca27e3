package bft

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// cluster is a deterministic in-memory harness: messages go through a FIFO
// queue pumped to completion, and timers fire manually.
type cluster struct {
	t        *testing.T
	replicas map[ReplicaID]*Replica
	queue    []envelope
	crashed  map[ReplicaID]bool
	cut      map[ReplicaID]bool
	timers   []timerEntry
	// delivered[id] is the ordered payload log of each replica.
	delivered map[ReplicaID][][]byte
}

type envelope struct {
	from, to ReplicaID
	msg      Message
}

type timerEntry struct {
	owner ReplicaID
	fn    func()
}

type clusterTransport struct {
	c    *cluster
	self ReplicaID
}

func (tr *clusterTransport) Send(to ReplicaID, msg Message) {
	tr.c.queue = append(tr.c.queue, envelope{from: tr.self, to: to, msg: msg})
}

func newCluster(t *testing.T, mode Mode, n int, timeout time.Duration) *cluster {
	t.Helper()
	c := &cluster{
		t:         t,
		replicas:  make(map[ReplicaID]*Replica),
		crashed:   make(map[ReplicaID]bool),
		cut:       make(map[ReplicaID]bool),
		delivered: make(map[ReplicaID][][]byte),
	}
	ids := make([]ReplicaID, n)
	for i := range ids {
		ids[i] = ReplicaID(i + 1)
	}
	for _, id := range ids {
		id := id
		cfg := Config{
			ID:        id,
			Replicas:  ids,
			Mode:      mode,
			Transport: &clusterTransport{c: c, self: id},
			Timer: func(d time.Duration, fn func()) {
				c.timers = append(c.timers, timerEntry{owner: id, fn: fn})
			},
			Deliver: func(seq uint64, payload []byte) {
				c.delivered[id] = append(c.delivered[id], append([]byte(nil), payload...))
			},
			ViewChangeTimeout: timeout,
		}
		r, err := NewReplica(cfg)
		if err != nil {
			t.Fatalf("NewReplica(%d): %v", id, err)
		}
		c.replicas[id] = r
	}
	return c
}

// pump processes queued messages until quiescence.
func (c *cluster) pump() {
	for steps := 0; len(c.queue) > 0; steps++ {
		if steps > 1_000_000 {
			c.t.Fatal("message pump did not quiesce")
		}
		env := c.queue[0]
		c.queue = c.queue[1:]
		if c.crashed[env.to] || c.cut[env.to] || c.cut[env.from] {
			continue
		}
		c.replicas[env.to].Handle(env.from, env.msg)
	}
}

// fireTimers fires all currently armed timers once, then pumps.
func (c *cluster) fireTimers() {
	timers := c.timers
	c.timers = nil
	for _, te := range timers {
		if !c.crashed[te.owner] {
			te.fn()
		}
	}
	c.pump()
}

// isolate partitions a replica away from the group (or heals it). Unlike
// crash, the replica stays alive and keeps its state.
func (c *cluster) isolate(id ReplicaID, cut bool) {
	c.cut[id] = cut
}

// crash fails a replica.
func (c *cluster) crash(id ReplicaID) {
	c.crashed[id] = true
	c.replicas[id].Stop()
}

// checkAgreement verifies every live replica delivered the same sequence.
func (c *cluster) checkAgreement(wantLen int) {
	c.t.Helper()
	var ref [][]byte
	var refID ReplicaID
	for id, r := range c.replicas {
		if c.crashed[id] {
			continue
		}
		_ = r
		log := c.delivered[id]
		if ref == nil {
			ref = log
			refID = id
			continue
		}
		if len(log) != len(ref) {
			c.t.Fatalf("replica %d delivered %d, replica %d delivered %d", id, len(log), refID, len(ref))
		}
		for i := range log {
			if !bytes.Equal(log[i], ref[i]) {
				c.t.Fatalf("order divergence at %d: replica %d=%q, replica %d=%q",
					i, id, log[i], refID, ref[i])
			}
		}
	}
	if wantLen >= 0 && len(ref) != wantLen {
		c.t.Fatalf("delivered %d payloads, want %d", len(ref), wantLen)
	}
}

func TestByzantineTotalOrder(t *testing.T) {
	c := newCluster(t, ModeByzantine, 4, 0)
	for i := 0; i < 20; i++ {
		// Submit from rotating replicas, including non-primaries.
		id := ReplicaID(i%4 + 1)
		c.replicas[id].Submit([]byte(fmt.Sprintf("event-%d", i)))
		c.pump()
	}
	c.checkAgreement(20)
}

func TestCrashModeTotalOrder(t *testing.T) {
	c := newCluster(t, ModeCrash, 3, 0)
	for i := 0; i < 10; i++ {
		c.replicas[ReplicaID(i%3+1)].Submit([]byte(fmt.Sprintf("e%d", i)))
		c.pump()
	}
	c.checkAgreement(10)
}

func TestConcurrentSubmissions(t *testing.T) {
	c := newCluster(t, ModeByzantine, 4, 0)
	// Submit a burst before any pumping: orders must still agree.
	for i := 0; i < 12; i++ {
		c.replicas[ReplicaID(i%4+1)].Submit([]byte(fmt.Sprintf("burst-%d", i)))
	}
	c.pump()
	c.checkAgreement(12)
}

func TestMinorityCrashStillProgresses(t *testing.T) {
	c := newCluster(t, ModeByzantine, 4, 0)
	c.crash(2) // not the primary (primary of view 0 is replica 1)
	for i := 0; i < 5; i++ {
		c.replicas[1].Submit([]byte(fmt.Sprintf("e%d", i)))
		c.pump()
	}
	c.checkAgreement(5)
}

func TestPrimaryCrashTriggersViewChange(t *testing.T) {
	c := newCluster(t, ModeByzantine, 4, time.Second)
	// Deliver one normally.
	c.replicas[1].Submit([]byte("pre"))
	c.pump()
	// Crash the primary, then a non-primary submits.
	c.crash(1)
	c.replicas[2].Submit([]byte("post"))
	c.pump() // request to dead primary: no progress
	if got := len(c.delivered[2]); got != 1 {
		t.Fatalf("unexpected progress before view change: %d", got)
	}
	// Fire the view-change timers; may need a couple of rounds for
	// join-on-f+1 and the new primary's takeover.
	for i := 0; i < 4 && len(c.delivered[2]) < 2; i++ {
		c.fireTimers()
	}
	c.checkAgreement(2)
	if v := c.replicas[2].View(); v == 0 {
		t.Fatal("view did not advance")
	}
	if !bytes.Equal(c.delivered[2][1], []byte("post")) {
		t.Fatalf("wrong payload after view change: %q", c.delivered[2][1])
	}
}

func TestPrimaryCrashCrashMode(t *testing.T) {
	c := newCluster(t, ModeCrash, 3, time.Second)
	c.replicas[1].Submit([]byte("a"))
	c.pump()
	c.crash(1)
	c.replicas[3].Submit([]byte("b"))
	c.pump()
	for i := 0; i < 4 && len(c.delivered[3]) < 2; i++ {
		c.fireTimers()
	}
	c.checkAgreement(2)
}

// equivocatingTransport lets a Byzantine primary send per-destination
// payloads for the same sequence number.
func TestEquivocatingPrimaryCannotSplitOrder(t *testing.T) {
	c := newCluster(t, ModeByzantine, 4, time.Second)
	evil := c.replicas[1] // primary of view 0
	// Deliver a normal request first so everyone is in sync.
	evil.Submit([]byte("honest"))
	c.pump()
	// The evil primary equivocates on seq 2: different payloads to
	// different replicas, crafted directly on the wire.
	a := []byte("pay-alpha")
	b := []byte("pay-beta")
	c.queue = append(c.queue,
		envelope{from: 1, to: 2, msg: PrePrepare{View: 0, Seq: 2, Digest: digestOf(a), Payload: a}},
		envelope{from: 1, to: 3, msg: PrePrepare{View: 0, Seq: 2, Digest: digestOf(a), Payload: a}},
		envelope{from: 1, to: 4, msg: PrePrepare{View: 0, Seq: 2, Digest: digestOf(b), Payload: b}},
	)
	c.pump()
	// Safety: no two correct replicas may deliver different payloads at
	// the same position, whatever liveness outcome occurs.
	c.checkAgreement(-1)
	for _, id := range []ReplicaID{2, 3, 4} {
		for i, p := range c.delivered[id] {
			if i == 1 && bytes.Equal(p, b) && bytes.Equal(c.delivered[2][1], a) {
				t.Fatal("split delivery")
			}
		}
	}
}

// TestViewChangeFillsSequenceGaps reproduces a partition stranding the
// primary's first proposals below the prepare quorum: later proposals
// prepare at higher sequence numbers, gap-free delivery wedges below them,
// and no replica would ever re-propose the stranded sequences (nextSeq only
// moves forward). The next view's primary must fill the uncovered sequences
// with null requests — which advance delivery silently — or the group
// wedges forever.
func TestViewChangeFillsSequenceGaps(t *testing.T) {
	c := newCluster(t, ModeByzantine, 4, 50*time.Millisecond)
	// Partition replicas 3 and 4 away; seqs 1-2 reach only replica 2 and
	// stall at two prepares, one short of the quorum.
	c.isolate(3, true)
	c.isolate(4, true)
	c.replicas[1].Submit([]byte("a"))
	c.replicas[1].Submit([]byte("b"))
	c.pump()
	// Heal the partition. The next proposal takes seq 3 and prepares (and
	// commits) everywhere, but nothing can deliver across the gap at 1-2.
	c.isolate(3, false)
	c.isolate(4, false)
	c.replicas[1].Submit([]byte("c"))
	c.pump()
	for id := range c.replicas {
		if n := len(c.delivered[id]); n != 0 {
			t.Fatalf("replica %d delivered %d payloads across the sequence gap", id, n)
		}
	}
	// First timeout: the stuck submitter rebroadcasts its requests (arming
	// the peers' timers) and votes for a view change. Second timeout: the
	// peers vote too, the quorum forms, and the new primary re-proposes the
	// surviving seq-3 entry behind null requests for seqs 1-2. The stranded
	// payloads then resubmit through the normal request path.
	c.fireTimers()
	c.fireTimers()
	c.checkAgreement(3)
	if !bytes.Equal(c.delivered[2][0], []byte("c")) {
		t.Fatalf("first delivery %q, want the prepared entry %q", c.delivered[2][0], "c")
	}
}

// TestViewChangeMergeIsDeterministic: two view-change votes name different
// payloads at one slot. Which one the new primary re-proposes must be a
// function of the vote set: over 100 fresh groups it is the same one, the
// entry of the highest voter. (Merged in map order, either won.)
func TestViewChangeMergeIsDeterministic(t *testing.T) {
	won := map[string]int{}
	for run := 0; run < 100; run++ {
		c := newCluster(t, ModeByzantine, 4, 0)
		next := c.replicas[2] // primary of view 1
		for i, payload := range [][]byte{[]byte("a"), []byte("b")} {
			next.Handle(ReplicaID(3+i), ViewChange{NewView: 1, Prepared: []PreparedEntry{{Seq: 1, Digest: digestOf(payload), Payload: payload}}})
		}
		if next.View() != 1 || next.slots[1] == nil {
			t.Fatalf("run %d: replica 2 did not take over view 1 with slot 1 re-proposed (view %d)", run, next.View())
		}
		won[string(next.slots[1].payload)]++
	}
	if won["b"] != 100 {
		t.Fatalf("re-proposed payload over 100 runs: %v, want replica 4's b every time", won)
	}
}

func TestDeliverInSequenceDespiteReordering(t *testing.T) {
	// Feed commits/prepares for seq 2 before seq 1 completes: delivery
	// must remain in order. We simulate by submitting two payloads and
	// pumping only at the end (the FIFO still respects send order, so we
	// reverse part of the queue to force reordering).
	c := newCluster(t, ModeByzantine, 4, 0)
	c.replicas[1].Submit([]byte("first"))
	c.replicas[1].Submit([]byte("second"))
	// Reverse the queued messages to maximize disorder.
	for i, j := 0, len(c.queue)-1; i < j; i, j = i+1, j-1 {
		c.queue[i], c.queue[j] = c.queue[j], c.queue[i]
	}
	c.pump()
	c.checkAgreement(2)
	if !bytes.Equal(c.delivered[2][0], []byte("first")) {
		t.Fatalf("out-of-order delivery: %q first", c.delivered[2][0])
	}
}

func TestGCKeepsSlotMapBounded(t *testing.T) {
	c := newCluster(t, ModeCrash, 3, 0)
	for i := 0; i < 400; i++ {
		c.replicas[1].Submit([]byte(fmt.Sprintf("gc-%d", i)))
		c.pump()
	}
	c.checkAgreement(400)
	for id, r := range c.replicas {
		if len(r.slots) > gcKeep+8 {
			t.Fatalf("replica %d retains %d slots, want <= %d", id, len(r.slots), gcKeep+8)
		}
	}
}

func TestNewReplicaValidation(t *testing.T) {
	tr := &clusterTransport{}
	if _, err := NewReplica(Config{ID: 1, Replicas: []ReplicaID{1, 2, 3}, Mode: ModeByzantine, Transport: tr}); !errors.Is(err, ErrNotEnoughReplicas) {
		t.Errorf("n=3 byzantine: expected ErrNotEnoughReplicas, got %v", err)
	}
	if _, err := NewReplica(Config{ID: 1, Replicas: []ReplicaID{1}, Mode: ModeCrash, Transport: tr}); !errors.Is(err, ErrNotEnoughReplicas) {
		t.Errorf("n=1 crash: expected ErrNotEnoughReplicas, got %v", err)
	}
	if _, err := NewReplica(Config{ID: 9, Replicas: []ReplicaID{1, 2, 3, 4}, Mode: ModeByzantine, Transport: tr}); !errors.Is(err, ErrUnknownReplica) {
		t.Errorf("expected ErrUnknownReplica, got %v", err)
	}
	if _, err := NewReplica(Config{ID: 1, Replicas: []ReplicaID{1, 2, 3, 4}, Mode: 0, Transport: tr}); err == nil {
		t.Error("invalid mode accepted")
	}
}

func TestFaultToleranceThresholds(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		n, f int
	}{
		{ModeByzantine, 4, 1},
		{ModeByzantine, 7, 2},
		{ModeByzantine, 10, 3},
		{ModeCrash, 3, 1},
		{ModeCrash, 5, 2},
	} {
		ids := make([]ReplicaID, tc.n)
		for i := range ids {
			ids[i] = ReplicaID(i + 1)
		}
		r, err := NewReplica(Config{ID: 1, Replicas: ids, Mode: tc.mode, Transport: &clusterTransport{}})
		if err != nil {
			t.Fatalf("NewReplica: %v", err)
		}
		if r.f != tc.f {
			t.Errorf("mode=%v n=%d: f=%d, want %d", tc.mode, tc.n, r.f, tc.f)
		}
	}
}

func TestLargerGroups(t *testing.T) {
	for _, n := range []int{7, 10} {
		c := newCluster(t, ModeByzantine, n, 0)
		for i := 0; i < 8; i++ {
			c.replicas[ReplicaID(i%n+1)].Submit([]byte(fmt.Sprintf("e%d", i)))
			c.pump()
		}
		c.checkAgreement(8)
	}
}

func BenchmarkByzantineAgreement4(b *testing.B) {
	ids := []ReplicaID{1, 2, 3, 4}
	delivered := 0
	var queue []envelope
	replicas := make(map[ReplicaID]*Replica)
	for _, id := range ids {
		id := id
		r, err := NewReplica(Config{
			ID: id, Replicas: ids, Mode: ModeByzantine,
			Transport: transportFunc(func(to ReplicaID, msg Message) {
				queue = append(queue, envelope{from: id, to: to, msg: msg})
			}),
			Deliver: func(seq uint64, payload []byte) { delivered++ },
		})
		if err != nil {
			b.Fatal(err)
		}
		replicas[id] = r
	}
	pump := func() {
		for len(queue) > 0 {
			env := queue[0]
			queue = queue[1:]
			replicas[env.to].Handle(env.from, env.msg)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Unique payloads: identical ones are (correctly) deduplicated by
		// digest at the primary.
		replicas[1].Submit([]byte(fmt.Sprintf("payload-%d", i)))
		pump()
	}
	if delivered != 4*b.N {
		b.Fatalf("delivered %d, want %d", delivered, 4*b.N)
	}
}

type transportFunc func(to ReplicaID, msg Message)

func (f transportFunc) Send(to ReplicaID, msg Message) { f(to, msg) }
