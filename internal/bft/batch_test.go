package bft

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// batchCluster wraps the deterministic cluster with batched ordering: every
// replica runs BatchSize > 1 and records both the flattened payload log
// (comparable with checkAgreement) and the batch boundaries.
func newBatchCluster(t *testing.T, n, batchSize int, timeout time.Duration) (*cluster, map[ReplicaID][]int) {
	t.Helper()
	c := newCluster(t, ModeByzantine, n, timeout)
	batches := make(map[ReplicaID][]int)
	for id, r := range c.replicas {
		id := id
		r.cfg.BatchSize = batchSize
		r.cfg.DeliverBatch = func(seq uint64, payloads [][]byte) {
			batches[id] = append(batches[id], len(payloads))
			for _, p := range payloads {
				c.delivered[id] = append(c.delivered[id], append([]byte(nil), p...))
			}
		}
	}
	return c, batches
}

// TestBatchEncodeDecode round-trips containers and rejects everything else.
func TestBatchEncodeDecode(t *testing.T) {
	cases := [][][]byte{
		{[]byte("a")},
		{[]byte("a"), []byte("bb"), []byte("ccc")},
		{[]byte(""), []byte("x")}, // empty member survives
	}
	for _, payloads := range cases {
		enc := EncodeBatch(payloads)
		dec, ok := DecodeBatch(enc)
		if !ok || len(dec) != len(payloads) {
			t.Fatalf("round trip failed for %d payloads", len(payloads))
		}
		for i := range payloads {
			if !bytes.Equal(dec[i], payloads[i]) {
				t.Fatalf("payload %d corrupted", i)
			}
		}
	}
	for _, bad := range [][]byte{
		nil,
		[]byte("{}"),                           // application payload
		[]byte("\x00cbatch1"),                  // magic with no count
		EncodeBatch(nil),                       // zero-payload container
		EncodeBatch([][]byte{[]byte("a")})[:9], // truncated
		append(EncodeBatch([][]byte{[]byte("a")}), 0x7), // trailing bytes
	} {
		if _, ok := DecodeBatch(bad); ok {
			t.Fatalf("malformed container %q accepted", bad)
		}
	}
}

// TestBatchedTotalOrder pushes enough traffic through a batched group to
// close several size-bounded batches and checks every replica delivers the
// same payloads in the same order with fewer agreement slots than payloads.
func TestBatchedTotalOrder(t *testing.T) {
	const n, batchSize, total = 4, 8, 20
	c, batches := newBatchCluster(t, n, batchSize, 0)
	for i := 0; i < total; i++ {
		c.replicas[ReplicaID(i%n+1)].Submit([]byte(fmt.Sprintf("payload-%02d", i)))
	}
	c.pump()
	c.fireTimers() // delay-bound flush for the final partial batch
	c.checkAgreement(total)
	for id, sizes := range batches {
		got := 0
		for _, s := range sizes {
			if s > batchSize {
				t.Fatalf("replica %d saw a batch of %d > BatchSize %d", id, s, batchSize)
			}
			got += s
		}
		if got != total {
			t.Fatalf("replica %d delivered %d payloads via batches, want %d", id, got, total)
		}
		if len(sizes) >= total {
			t.Fatalf("replica %d used %d slots for %d payloads — no amortization", id, len(sizes), total)
		}
	}
}

// TestBatchDelayFlush checks a partial batch does not wait for the size
// bound: the delay timer closes it.
func TestBatchDelayFlush(t *testing.T) {
	c, batches := newBatchCluster(t, 4, 64, 0)
	for i := 0; i < 5; i++ {
		c.replicas[1].Submit([]byte(fmt.Sprintf("sparse-%d", i)))
	}
	c.pump()
	if len(c.delivered[1]) != 0 {
		t.Fatalf("partial batch delivered before the delay bound: %d payloads", len(c.delivered[1]))
	}
	c.fireTimers()
	c.checkAgreement(5)
	if got := batches[1]; len(got) != 1 || got[0] != 5 {
		t.Fatalf("want one 5-payload batch, got %v", got)
	}
}

// TestBatchDedup checks retransmitted requests do not enter a batch twice,
// whether the duplicate arrives while buffered or after delivery.
func TestBatchDedup(t *testing.T) {
	c, _ := newBatchCluster(t, 4, 64, 0)
	c.replicas[1].Submit([]byte("once"))
	c.replicas[1].Handle(2, Request{Payload: []byte("once")}) // duplicate while buffered
	c.pump()
	c.fireTimers()
	c.checkAgreement(1)
	c.replicas[1].Handle(3, Request{Payload: []byte("once")}) // duplicate after delivery
	c.pump()
	c.fireTimers()
	c.checkAgreement(1)
}

// TestBatchSurvivesViewChange crashes the primary while payloads are
// buffered in its open batch and in flight; the view change must re-propose
// them so nothing is lost.
func TestBatchSurvivesViewChange(t *testing.T) {
	c, _ := newBatchCluster(t, 4, 64, 50*time.Millisecond)
	c.replicas[2].Submit([]byte("survivor-a"))
	c.replicas[3].Submit([]byte("survivor-b"))
	c.pump() // requests reach the primary and sit in its open batch
	c.crash(1)
	for i := 0; i < 4; i++ {
		c.fireTimers() // view-change timeout, then the new primary's flush
	}
	c.checkAgreement(2)
}

// TestBatchOneMatchesUnbatched checks BatchSize=1 leaves the protocol on
// the legacy path: identical delivery log, one slot per payload, and no
// batch containers on the wire.
func TestBatchOneMatchesUnbatched(t *testing.T) {
	const n, total = 4, 9
	run := func(batchSize int) [][]byte {
		c := newCluster(t, ModeByzantine, n, 0)
		for _, r := range c.replicas {
			r.cfg.BatchSize = batchSize
		}
		for i := 0; i < total; i++ {
			c.replicas[ReplicaID(i%n+1)].Submit([]byte(fmt.Sprintf("eq-%02d", i)))
		}
		c.pump()
		c.fireTimers()
		c.checkAgreement(total)
		return c.delivered[1]
	}
	legacy, one := run(0), run(1)
	if len(legacy) != len(one) {
		t.Fatalf("BatchSize=1 delivered %d, legacy %d", len(one), len(legacy))
	}
	for i := range legacy {
		if !bytes.Equal(legacy[i], one[i]) {
			t.Fatalf("divergence at %d: %q vs %q", i, legacy[i], one[i])
		}
	}
}

// TestBatchedMatchesUnbatchedOrder checks batching changes slot packing but
// not the delivered payload order for a single-submitter stream.
func TestBatchedMatchesUnbatchedOrder(t *testing.T) {
	const total = 12
	run := func(batchSize int) [][]byte {
		var c *cluster
		if batchSize > 1 {
			c, _ = newBatchCluster(t, 4, batchSize, 0)
		} else {
			c = newCluster(t, ModeByzantine, 4, 0)
		}
		for i := 0; i < total; i++ {
			c.replicas[2].Submit([]byte(fmt.Sprintf("ord-%02d", i)))
		}
		c.pump()
		c.fireTimers()
		c.checkAgreement(total)
		return c.delivered[3]
	}
	unbatched, batched := run(1), run(4)
	for i := range unbatched {
		if !bytes.Equal(unbatched[i], batched[i]) {
			t.Fatalf("order divergence at %d: %q vs %q", i, unbatched[i], batched[i])
		}
	}
}
