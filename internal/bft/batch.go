package bft

import (
	"encoding/binary"
	"time"
)

// Batched ordering: with Config.BatchSize > 1 the primary accumulates
// submitted payloads and runs one three-phase agreement per batch instead
// of per payload. A batch closes when it reaches BatchSize payloads or
// when BatchDelay elapses since its first payload, whichever comes first —
// the size bound caps amortization latency under load, the delay bound
// caps it when traffic is sparse. With BatchSize <= 1 (the default) every
// code path below is skipped and the replica behaves exactly as before.
//
// A batch travels through agreement as one opaque payload (one sequence
// number, one digest, one quorum ceremony); deduplication, pending-request
// tracking, and view-change coverage all operate on the constituent
// payloads so a payload submitted into a batch that dies with a view
// change is re-proposed individually, never lost.

// batchMagic prefixes every encoded batch container. Application payloads
// begin with their wire-codec kind byte, which is never 0, and null
// requests are empty, so the NUL-prefixed magic cannot collide with
// either.
const batchMagic = "\x00cbatch1"

// DefaultBatchDelay bounds how long a non-full batch may wait for more
// payloads before the primary closes it.
const DefaultBatchDelay = 5 * time.Millisecond

// EncodeBatch packs payloads into one batch container.
func EncodeBatch(payloads [][]byte) []byte {
	size := len(batchMagic) + binary.MaxVarintLen64
	for _, p := range payloads {
		size += binary.MaxVarintLen64 + len(p)
	}
	out := make([]byte, 0, size)
	out = append(out, batchMagic...)
	out = binary.AppendUvarint(out, uint64(len(payloads)))
	for _, p := range payloads {
		out = binary.AppendUvarint(out, uint64(len(p)))
		out = append(out, p...)
	}
	return out
}

// DecodeBatch unpacks a batch container, reporting ok=false for anything
// that is not one (application payloads, null requests, truncated data)
// and for anything EncodeBatch would not have written: one batch has one
// byte string, and so one digest.
func DecodeBatch(payload []byte) ([][]byte, bool) {
	if len(payload) < len(batchMagic) || string(payload[:len(batchMagic)]) != batchMagic {
		return nil, false
	}
	rest := payload[len(batchMagic):]
	count, n := uvarint(rest)
	if n <= 0 || count == 0 || count > uint64(len(rest)) {
		return nil, false
	}
	rest = rest[n:]
	out := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		ln, n := uvarint(rest)
		if n <= 0 || ln > uint64(len(rest)-n) {
			return nil, false
		}
		out = append(out, rest[n:n+int(ln)])
		rest = rest[n+int(ln):]
	}
	if len(rest) != 0 {
		return nil, false
	}
	return out, true
}

// uvarint reads a minimally encoded varint. binary.Uvarint also takes a
// multi-byte form that ends in a zero byte, a second spelling of a value
// that fits in fewer bytes; that reads as n = 0 here.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// batching reports whether batched ordering is enabled.
func (r *Replica) batching() bool { return r.cfg.BatchSize > 1 }

// decodeIfBatch decodes a batch container, but only when batching is
// enabled — with BatchSize <= 1 the replica treats every payload as opaque,
// exactly as before batching existed.
func (r *Replica) decodeIfBatch(payload []byte) ([][]byte, bool) {
	if !r.batching() {
		return nil, false
	}
	return DecodeBatch(payload)
}

// enqueueBatch adds a payload to the open batch (primary only), closing it
// when full. The payload's digest is marked sequenced immediately so
// retransmitted requests dedup against buffered payloads too.
func (r *Replica) enqueueBatch(payload []byte) {
	d := digestOf(payload)
	if r.sequenced[d] {
		return
	}
	r.sequenced[d] = true
	r.batchBuf = append(r.batchBuf, append([]byte(nil), payload...))
	if len(r.batchBuf) >= r.cfg.BatchSize {
		r.flushBatch()
		return
	}
	r.armBatchTimer()
}

// flushBatch closes the open batch and proposes it as one agreement slot.
func (r *Replica) flushBatch() {
	if len(r.batchBuf) == 0 {
		return
	}
	payload := EncodeBatch(r.batchBuf)
	r.batchBuf = nil
	r.proposeRaw(payload)
}

// armBatchTimer schedules the delay-bound flush for the open batch.
func (r *Replica) armBatchTimer() {
	if r.cfg.Timer == nil || r.batchTimerArmed {
		return
	}
	delay := r.cfg.BatchDelay
	if delay <= 0 {
		delay = DefaultBatchDelay
	}
	r.batchTimerArmed = true
	r.cfg.Timer(delay, func() {
		r.batchTimerArmed = false
		if r.stopped || !r.IsPrimary() {
			return
		}
		r.flushBatch()
	})
}

// markBatchSequenced records every constituent payload of a sequenced
// batch so duplicate requests are dropped and stuck-peer monitoring stops.
func (r *Replica) markBatchSequenced(payload []byte) {
	subs, ok := DecodeBatch(payload)
	if !ok {
		return
	}
	for _, sub := range subs {
		d := digestOf(sub)
		r.sequenced[d] = true
		delete(r.pendingForeign, d)
	}
}

// unmarkBatchSequenced releases constituent digests of an abandoned batch
// slot (view change) so the payloads become proposable again.
func (r *Replica) unmarkBatchSequenced(payload []byte) {
	subs, ok := DecodeBatch(payload)
	if !ok {
		return
	}
	for _, sub := range subs {
		delete(r.sequenced, digestOf(sub))
	}
}

// coveredByProposals reports whether a payload is re-proposed by any of
// the new view's pre-prepares, directly or inside a batch container.
func coveredByProposals(pps []PrePrepare, payload []byte) bool {
	d := digestOf(payload)
	for _, pp := range pps {
		if pp.Digest == d {
			return true
		}
		subs, ok := DecodeBatch(pp.Payload)
		if !ok {
			continue
		}
		for _, sub := range subs {
			if digestOf(sub) == d {
				return true
			}
		}
	}
	return false
}
