// Package bft implements the atomic broadcast (total-order broadcast) that
// Cicero's control plane uses to agree on the order of network events,
// standing in for the BFT-SMaRt library of the paper.
//
// Two modes share one replica implementation:
//
//   - ModeByzantine: PBFT-style three-phase agreement (pre-prepare,
//     prepare, commit) with quorums of 2f+1 out of n = 3f+1 replicas and a
//     view-change protocol for primary failure. This is the mode Cicero
//     runs (the paper's quorum t = ⌊(n−1)/3⌋+1 for update signatures is
//     layered above it).
//
//   - ModeCrash: the same pre-prepare/prepare skeleton with quorums of
//     f+1 out of n = 2f+1 and no commit phase — one fewer message delay,
//     modelling the paper's crash-tolerant baseline.
//
// Replicas are single-threaded message handlers driven by an external
// Transport and timer, so the package runs unchanged on the deterministic
// simulator or on channels/goroutines in unit tests.
//
// Fidelity note: view-change messages carry their prepared certificates
// without per-message signatures. Messages travel unenveloped (MsgBFT), so
// a vote counts under the sender the fabric reports, and is worth what that
// sender id is on the backend (DESIGN §4 "What `from` is worth"). The
// Byzantine experiments attack the update layer (forged updates,
// equivocating controllers) rather than consensus-internal certificates.
package bft

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"time"
)

// ReplicaID identifies a replica within the group.
type ReplicaID uint32

// Mode selects the failure model.
type Mode int

// Modes. Start at 1 so the zero value is invalid.
const (
	ModeByzantine Mode = iota + 1
	ModeCrash
)

// Transport carries protocol messages between replicas. Send must be
// asynchronous and may drop messages (the protocol retransmits via view
// changes).
type Transport interface {
	// Send delivers msg to one replica.
	Send(to ReplicaID, msg Message)
}

// Timer schedules a callback; implementations wire this to the simulator
// or to real time.
type Timer func(d time.Duration, fn func())

// DeliverFunc receives totally-ordered payloads exactly once, in sequence
// order, on every correct replica.
type DeliverFunc func(seq uint64, payload []byte)

// DeliverBatchFunc receives a totally-ordered batch of payloads that won
// agreement together in one slot. All correct replicas observe the same
// batches with the same internal order.
type DeliverBatchFunc func(seq uint64, payloads [][]byte)

// Message is the union of protocol messages (exported fields only, so the
// enclosing layers can serialize/seal them).
type Message any

// Digest is a payload hash binding the agreement messages to content.
type Digest [32]byte

func digestOf(payload []byte) Digest { return sha256.Sum256(payload) }

// PayloadDigest exposes the digest function so test harnesses (e.g. the
// chaos engine's Byzantine injectors) can craft well-formed but equivocating
// protocol messages whose digests match their forged payloads.
func PayloadDigest(payload []byte) Digest { return digestOf(payload) }

// Request asks the primary to order a payload. Replicas forward local
// submissions to the current primary.
type Request struct {
	Payload []byte
}

// PrePrepare is the primary's sequencing proposal.
type PrePrepare struct {
	View    uint64
	Seq     uint64
	Digest  Digest
	Payload []byte
}

// Prepare echoes agreement on (view, seq, digest). Neither it nor Commit nor
// ViewChange names its voter: a vote counts under the sender Handle was
// given, so no replica can cast one in another's name.
type Prepare struct {
	View   uint64
	Seq    uint64
	Digest Digest
}

// Commit finalizes agreement in Byzantine mode.
type Commit struct {
	View   uint64
	Seq    uint64
	Digest Digest
}

// PreparedEntry is a slot a replica had prepared when view-changing.
type PreparedEntry struct {
	Seq     uint64
	Digest  Digest
	Payload []byte
}

// ViewChange votes to move to a new view, carrying prepared entries that
// the new primary must re-propose and the voter's delivery watermark
// (the highest contiguously delivered sequence). The watermark keeps a
// lagging primary from re-assigning sequences its peers already
// delivered — PBFT's checkpoint high-water mark, collapsed to a single
// counter.
type ViewChange struct {
	NewView       uint64
	Prepared      []PreparedEntry
	LastDelivered uint64
}

// NewView announces the new primary's takeover with re-proposals.
type NewView struct {
	View        uint64
	PrePrepares []PrePrepare
}

// Config assembles a replica.
type Config struct {
	ID        ReplicaID
	Replicas  []ReplicaID
	Mode      Mode
	Transport Transport
	Timer     Timer
	Deliver   DeliverFunc
	// ViewChangeTimeout is how long a pending request may sit undelivered
	// before the replica votes to change views. Zero disables the timer
	// (used by tests that drive view changes manually).
	ViewChangeTimeout time.Duration
	// BatchSize > 1 enables batched ordering: the primary accumulates up
	// to BatchSize payloads per agreement slot. <= 1 orders per payload.
	BatchSize int
	// BatchDelay bounds how long a non-full batch waits before it is
	// proposed anyway. Zero means DefaultBatchDelay.
	BatchDelay time.Duration
	// DeliverBatch, when set alongside BatchSize > 1, receives whole
	// delivered batches; otherwise batch members are handed to Deliver
	// one by one in batch order.
	DeliverBatch DeliverBatchFunc
}

// Errors returned by the package.
var (
	// ErrNotEnoughReplicas reports a group too small for its mode.
	ErrNotEnoughReplicas = errors.New("bft: replica group too small for failure model")
	// ErrUnknownReplica reports a config whose ID is not in Replicas.
	ErrUnknownReplica = errors.New("bft: replica id not in group")
)

// slot tracks agreement state for one sequence number.
type slot struct {
	digest      Digest
	payload     []byte
	prePrepared bool
	prepares    map[ReplicaID]bool
	commits     map[ReplicaID]bool
	prepared    bool
	committed   bool
	delivered   bool
}

// Replica is one member of the atomic broadcast group.
type Replica struct {
	cfg  Config
	f    int
	view uint64

	nextSeq       uint64 // primary: next sequence to assign
	lastDelivered uint64
	slots         map[uint64]*slot

	pendingOwn      [][]byte          // submitted here, not yet delivered
	pendingForeign  map[Digest][]byte // rebroadcast by stuck peers, monitored for liveness
	sequenced       map[Digest]bool   // digests already proposed or delivered
	viewChanges     map[uint64]map[ReplicaID]*ViewChange
	batchBuf        [][]byte // primary: open batch awaiting size or delay bound
	batchTimerArmed bool
	timerArmed      bool
	// timeoutScale backs the view-change timeout off exponentially while
	// no progress happens, preventing view-change storms under overload;
	// it resets on every delivery.
	timeoutScale uint
	stopped      bool
}

// NewReplica validates the config and creates a replica.
func NewReplica(cfg Config) (*Replica, error) {
	n := len(cfg.Replicas)
	var f int
	switch cfg.Mode {
	case ModeByzantine:
		f = (n - 1) / 3
		if n < 4 {
			return nil, fmt.Errorf("%w: byzantine mode needs n >= 4, got %d", ErrNotEnoughReplicas, n)
		}
	case ModeCrash:
		f = (n - 1) / 2
		if n < 2 {
			return nil, fmt.Errorf("%w: crash mode needs n >= 2, got %d", ErrNotEnoughReplicas, n)
		}
	default:
		return nil, fmt.Errorf("bft: invalid mode %d", cfg.Mode)
	}
	found := false
	for _, id := range cfg.Replicas {
		if id == cfg.ID {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: %d", ErrUnknownReplica, cfg.ID)
	}
	sorted := append([]ReplicaID(nil), cfg.Replicas...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cfg.Replicas = sorted
	return &Replica{
		cfg:            cfg,
		f:              f,
		slots:          make(map[uint64]*slot),
		pendingForeign: make(map[Digest][]byte),
		sequenced:      make(map[Digest]bool),
		viewChanges:    make(map[uint64]map[ReplicaID]*ViewChange),
	}, nil
}

// View returns the current view number.
func (r *Replica) View() uint64 { return r.view }

// Primary returns the primary replica of a view.
func (r *Replica) Primary(view uint64) ReplicaID {
	return r.cfg.Replicas[int(view)%len(r.cfg.Replicas)]
}

// IsPrimary reports whether this replica leads the current view.
func (r *Replica) IsPrimary() bool { return r.Primary(r.view) == r.cfg.ID }

// quorum returns the agreement quorum size for the mode.
func (r *Replica) quorum() int {
	if r.cfg.Mode == ModeByzantine {
		return 2*r.f + 1
	}
	return r.f + 1
}

// Stop makes the replica ignore all further input (models a crash from
// the inside; the simulator's Crash drops traffic from the outside).
func (r *Replica) Stop() { r.stopped = true }

// Submit asks the group to order payload. It can be called on any replica.
func (r *Replica) Submit(payload []byte) {
	if r.stopped {
		return
	}
	r.pendingOwn = append(r.pendingOwn, append([]byte(nil), payload...))
	r.armTimer()
	if r.IsPrimary() {
		r.propose(payload)
		return
	}
	r.cfg.Transport.Send(r.Primary(r.view), Request{Payload: payload})
}

// propose sequences a payload (primary only). Payloads already sequenced
// (or delivered) are skipped, deduplicating retransmitted requests. With
// batching enabled the payload joins the open batch instead of getting a
// slot of its own.
func (r *Replica) propose(payload []byte) {
	if r.batching() {
		r.enqueueBatch(payload)
		return
	}
	if r.sequenced[digestOf(payload)] {
		return
	}
	r.proposeRaw(payload)
}

// proposeRaw assigns the next sequence number and broadcasts a pre-prepare.
func (r *Replica) proposeRaw(payload []byte) {
	r.nextSeq++
	seq := r.nextSeq
	pp := PrePrepare{View: r.view, Seq: seq, Digest: digestOf(payload), Payload: append([]byte(nil), payload...)}
	r.broadcast(pp)
	r.handlePrePrepare(pp) // self-delivery
}

// broadcast sends msg to every other replica.
func (r *Replica) broadcast(msg Message) {
	for _, id := range r.cfg.Replicas {
		if id != r.cfg.ID {
			r.cfg.Transport.Send(id, msg)
		}
	}
}

// Handle processes a protocol message from another replica. It must be
// called from a single goroutine (or the simulator's event loop).
func (r *Replica) Handle(from ReplicaID, msg Message) {
	if r.stopped {
		return
	}
	switch m := msg.(type) {
	case Request:
		if r.IsPrimary() {
			r.propose(m.Payload)
			return
		}
		// A request reaching a non-primary is a stuck client's
		// rebroadcast: monitor it so this replica times out too and the
		// view-change quorum can form.
		d := digestOf(m.Payload)
		if !r.sequenced[d] {
			r.pendingForeign[d] = append([]byte(nil), m.Payload...)
			r.armTimer()
		}
	case PrePrepare:
		if from != r.Primary(m.View) && from != r.cfg.ID {
			return // only the view's primary may sequence
		}
		r.handlePrePrepare(m)
	case Prepare:
		r.handlePrepare(from, m)
	case Commit:
		r.handleCommit(from, m)
	case ViewChange:
		r.handleViewChange(from, m)
	case NewView:
		r.handleNewView(from, m)
	}
}

// getSlot returns (creating if needed) the state for seq.
func (r *Replica) getSlot(seq uint64) *slot {
	s, ok := r.slots[seq]
	if !ok {
		s = &slot{prepares: make(map[ReplicaID]bool), commits: make(map[ReplicaID]bool)}
		r.slots[seq] = s
	}
	return s
}

func (r *Replica) handlePrePrepare(pp PrePrepare) {
	if pp.View != r.view {
		return
	}
	if digestOf(pp.Payload) != pp.Digest {
		return // malformed proposal
	}
	s := r.getSlot(pp.Seq)
	if s.prePrepared && s.digest != pp.Digest {
		return // equivocation: keep the first
	}
	s.prePrepared = true
	s.digest = pp.Digest
	s.payload = append([]byte(nil), pp.Payload...)
	r.sequenced[pp.Digest] = true
	delete(r.pendingForeign, pp.Digest)
	if r.batching() {
		r.markBatchSequenced(pp.Payload)
	}
	if pp.Seq > r.nextSeq {
		r.nextSeq = pp.Seq // keep in sync for future primariness
	}
	prep := Prepare{View: r.view, Seq: pp.Seq, Digest: pp.Digest}
	r.broadcast(prep)
	r.handlePrepare(r.cfg.ID, prep) // count own vote
}

func (r *Replica) handlePrepare(from ReplicaID, p Prepare) {
	if p.View != r.view {
		return
	}
	s := r.getSlot(p.Seq)
	if s.prePrepared && s.digest != p.Digest {
		return
	}
	s.prepares[from] = true
	r.maybeAdvance(p.Seq, s)
}

func (r *Replica) handleCommit(from ReplicaID, c Commit) {
	if c.View != r.view {
		return
	}
	s := r.getSlot(c.Seq)
	if s.prePrepared && s.digest != c.Digest {
		return
	}
	s.commits[from] = true
	r.maybeAdvance(c.Seq, s)
}

// maybeAdvance moves a slot through prepared -> committed -> delivered.
func (r *Replica) maybeAdvance(seq uint64, s *slot) {
	if !s.prePrepared {
		return
	}
	if !s.prepared && len(s.prepares) >= r.quorum() {
		s.prepared = true
		if r.cfg.Mode == ModeByzantine {
			c := Commit{View: r.view, Seq: seq, Digest: s.digest}
			r.broadcast(c)
			s.commits[r.cfg.ID] = true
		}
	}
	if s.prepared {
		switch r.cfg.Mode {
		case ModeCrash:
			s.committed = true
		case ModeByzantine:
			if len(s.commits) >= r.quorum() {
				s.committed = true
			}
		}
	}
	r.deliverReady()
}

// deliverReady delivers committed slots in sequence order.
func (r *Replica) deliverReady() {
	for {
		next := r.lastDelivered + 1
		s, ok := r.slots[next]
		if !ok || !s.committed || s.delivered {
			return
		}
		s.delivered = true
		r.lastDelivered = next
		r.timeoutScale = 0
		r.dropPendingOwn(s.payload)
		delete(r.pendingForeign, s.digest)
		if subs, ok := r.decodeIfBatch(s.payload); ok {
			for _, sub := range subs {
				r.dropPendingOwn(sub)
				delete(r.pendingForeign, digestOf(sub))
			}
			if r.cfg.DeliverBatch != nil {
				r.cfg.DeliverBatch(next, subs)
			} else if r.cfg.Deliver != nil {
				for _, sub := range subs {
					if len(sub) > 0 {
						r.cfg.Deliver(next, sub)
					}
				}
			}
		} else if r.cfg.Deliver != nil && len(s.payload) > 0 {
			r.cfg.Deliver(next, s.payload) // null requests advance the sequence silently
		}
		r.gc()
	}
}

// dropPendingOwn clears a delivered payload from the local retry list.
func (r *Replica) dropPendingOwn(payload []byte) {
	for i, p := range r.pendingOwn {
		if bytes.Equal(p, payload) {
			r.pendingOwn = append(r.pendingOwn[:i], r.pendingOwn[i+1:]...)
			return
		}
	}
}

// gcKeep is how many delivered slots are retained before garbage
// collection (a stand-in for PBFT's checkpoint protocol).
const gcKeep = 128

// gc trims long-delivered slots.
func (r *Replica) gc() {
	if r.lastDelivered < gcKeep {
		return
	}
	cutoff := r.lastDelivered - gcKeep
	for seq := range r.slots {
		if seq <= cutoff && r.slots[seq].delivered {
			delete(r.slots, seq)
		}
	}
}

// armTimer starts the view-change timeout if configured and not running.
func (r *Replica) armTimer() {
	if r.cfg.ViewChangeTimeout <= 0 || r.cfg.Timer == nil || r.timerArmed {
		return
	}
	r.timerArmed = true
	deadline := r.lastDelivered
	timeout := r.cfg.ViewChangeTimeout << min(r.timeoutScale, 8)
	r.cfg.Timer(timeout, func() {
		r.timerArmed = false
		if r.stopped {
			return
		}
		pending := len(r.pendingOwn) > 0 || len(r.pendingForeign) > 0
		// Progress was made: rearm and keep watching.
		if r.lastDelivered > deadline {
			if pending {
				r.armTimer()
			}
			return
		}
		if !pending {
			return
		}
		// Rebroadcast stuck own requests so peers arm their timers and a
		// view-change quorum can form even when only this replica knows
		// about the request; back off exponentially so an overloaded
		// replica does not storm the group.
		r.timeoutScale++
		for _, p := range r.pendingOwn {
			r.broadcast(Request{Payload: p})
		}
		r.startViewChange(r.view + 1)
	})
}

// startViewChange votes for newView.
func (r *Replica) startViewChange(newView uint64) {
	if newView <= r.view {
		return
	}
	vc := ViewChange{NewView: newView, Prepared: r.preparedEntries(), LastDelivered: r.lastDelivered}
	r.broadcast(vc)
	r.handleViewChange(r.cfg.ID, vc)
	r.armTimer()
}

// preparedEntries snapshots the undelivered prepared slots.
func (r *Replica) preparedEntries() []PreparedEntry {
	var out []PreparedEntry
	for seq, s := range r.slots {
		if s.prepared && !s.delivered {
			out = append(out, PreparedEntry{Seq: seq, Digest: s.digest, Payload: s.payload})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

func (r *Replica) handleViewChange(from ReplicaID, vc ViewChange) {
	if vc.NewView <= r.view {
		return
	}
	votes, ok := r.viewChanges[vc.NewView]
	if !ok {
		votes = make(map[ReplicaID]*ViewChange)
		r.viewChanges[vc.NewView] = votes
	}
	votes[from] = &vc
	// Join a view change once f+1 peers vote (we are behind).
	if len(votes) > r.f && votes[r.cfg.ID] == nil {
		r.startViewChange(vc.NewView)
		votes = r.viewChanges[vc.NewView]
	}
	if len(votes) >= r.quorum() && r.Primary(vc.NewView) == r.cfg.ID {
		r.becomePrimary(vc.NewView, votes)
	}
}

// becomePrimary installs the new view and re-proposes surviving requests.
func (r *Replica) becomePrimary(view uint64, votes map[ReplicaID]*ViewChange) {
	if view <= r.view {
		return
	}
	r.view = view
	// Merge prepared entries from the quorum, one per slot. Two votes can
	// name different digests at one slot, and until an entry carries the
	// view it prepared in nothing ranks them: the vote of the highest
	// replica id wins (cfg.Replicas is ascending), so that the choice is a
	// function of the vote set and not of map order.
	merged := make(map[uint64]PreparedEntry)
	for _, id := range r.cfg.Replicas {
		if vc := votes[id]; vc != nil {
			for _, e := range vc.Prepared {
				merged[e.Seq] = e
			}
		}
	}
	// Never sequence below the view-change quorum's delivery watermark: a
	// primary that lags (or lost slots to gc) would otherwise re-assign
	// sequences its peers already delivered — they refuse the conflicting
	// pre-prepare and the view stalls, while replicas equally far behind
	// would accept and deliver diverging content.
	watermark := r.lastDelivered
	for _, vc := range votes {
		if vc.LastDelivered > watermark {
			watermark = vc.LastDelivered
		}
	}
	// The new view's proposals must be gap-free above the watermark:
	// delivery is strictly sequential and nextSeq only moves forward, so a
	// sequence no vote had prepared that sits below a prepared entry would
	// never be re-proposed by anyone and the group would wedge at it
	// forever (a partition can strand a proposal below quorum at exactly
	// such a sequence). Fill the holes with null requests — PBFT's
	// new-view construction — which deliver as empty payloads consumers
	// ignore.
	maxSeq := watermark
	for seq := range merged {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	var pps []PrePrepare
	for seq := watermark + 1; seq <= maxSeq; seq++ {
		if e, ok := merged[seq]; ok {
			pps = append(pps, PrePrepare{View: view, Seq: seq, Digest: e.Digest, Payload: e.Payload})
		} else {
			pps = append(pps, PrePrepare{View: view, Seq: seq, Digest: digestOf(nil)})
		}
	}
	r.nextSeq = maxSeq
	// Reset per-view slot state for undelivered slots.
	r.resetUndelivered()
	nv := NewView{View: view, PrePrepares: pps}
	r.broadcast(nv)
	r.applyNewView(nv)
	// Re-propose our own stuck submissions not covered by the merge.
	for _, payload := range append([][]byte(nil), r.pendingOwn...) {
		if !coveredByProposals(pps, payload) {
			r.propose(payload)
		}
	}
	r.flushBatch() // don't make re-proposals wait out the batch delay
}

func (r *Replica) handleNewView(from ReplicaID, nv NewView) {
	if nv.View <= r.view || from != r.Primary(nv.View) {
		return
	}
	r.view = nv.View
	r.resetUndelivered()
	r.applyNewView(nv)
	// Resubmit our own pending requests to the new primary.
	for _, payload := range append([][]byte(nil), r.pendingOwn...) {
		if !coveredByProposals(nv.PrePrepares, payload) {
			r.cfg.Transport.Send(r.Primary(r.view), Request{Payload: payload})
		}
	}
	r.armTimer()
}

// applyNewView processes the new primary's re-proposals.
func (r *Replica) applyNewView(nv NewView) {
	for _, pp := range nv.PrePrepares {
		r.handlePrePrepare(pp)
	}
}

// resetUndelivered clears agreement state of undelivered slots when
// entering a new view (they will be re-proposed, so their digests become
// proposable again). An open batch is abandoned the same way: its members
// survive in pendingOwn (local submissions) or at their origin replicas
// (forwarded requests) and re-enter through the new view's resubmissions.
func (r *Replica) resetUndelivered() {
	for _, p := range r.batchBuf {
		delete(r.sequenced, digestOf(p))
	}
	r.batchBuf = nil
	for seq, s := range r.slots {
		if !s.delivered {
			delete(r.sequenced, s.digest)
			if r.batching() {
				r.unmarkBatchSequenced(s.payload)
			}
			delete(r.slots, seq)
		}
	}
}

// LastDelivered returns the highest contiguously delivered sequence.
func (r *Replica) LastDelivered() uint64 { return r.lastDelivered }

// GapStalled returns how many committed-but-undeliverable slots sit
// above the delivery horizon while the slot directly at the horizon
// cannot commit. Delivery is contiguous, so this is the signature of a
// wedged replica: the group decided slots this replica can see, but the
// agreement traffic for the gap slot was lost and — once peers
// garbage-collect past it — will never be retransmitted. A zero return
// means the horizon either has nothing above it or will advance on its
// own.
func (r *Replica) GapStalled() int {
	next := r.lastDelivered + 1
	if s, ok := r.slots[next]; ok && s.committed {
		return 0 // the horizon is about to move
	}
	stalled := 0
	for seq, s := range r.slots {
		if seq > next && s.committed && !s.delivered {
			stalled++
		}
	}
	return stalled
}

// SyncTo fast-forwards a freshly restarted replica to externally learned
// coordinates: the group's view and the last sequence the caller has
// already applied through state transfer. It is monotonic — stale calls
// are no-ops. Slots at or below the new delivery horizon are dropped; the
// group's normal retransmission paths (view changes, pending-own
// rebroadcast) fill anything above it.
func (r *Replica) SyncTo(view, lastDelivered uint64) {
	if view > r.view {
		r.view = view
		// Stale per-view agreement state from before the jump can never
		// complete; clear it so the digests become proposable in the new
		// view.
		r.resetUndelivered()
	}
	if lastDelivered > r.lastDelivered {
		r.lastDelivered = lastDelivered
		for seq := range r.slots {
			if seq <= lastDelivered {
				delete(r.slots, seq)
			}
		}
	}
	if lastDelivered > r.nextSeq {
		r.nextSeq = lastDelivered
	}
	r.gc()
}
