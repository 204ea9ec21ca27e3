// Crash/restart recovery for controllers and switch resynchronization.
//
// A crashed controller restarts with empty volatile state: no delivered
// events, no scheduler engine, no audit ledger, and an atomic-broadcast
// replica at view 0. Its durable state is only the key material it was
// provisioned with (identity keys and its threshold share — secrets that a
// deployment keeps on disk or in an HSM). Recovery rebuilds the volatile
// state from peers:
//
//  1. The restarted controller multicasts MsgRecoverRequest.
//  2. Each peer answers with MsgRecoverState: the canonical encodings of
//     every event in its audit ledger (in broadcast delivery order) plus
//     its replica's (view, lastDelivered) coordinates.
//  3. The controller adopts a response only when f+1 responses are
//     byte-identical (same event history, same coordinates), where
//     f = ⌊(n−1)/3⌋. At least one of any f+1 identical responses comes
//     from an honest peer, so the adopted history is an honest history: a
//     Byzantine peer can neither fabricate events nor skip suffixes.
//  4. The adopted events replay through the normal delivery path
//     (dedup → ledger append → plan → schedule → dispatch), rebuilding
//     the engine and the ledger exactly as live delivery would have, and
//     the replica fast-forwards with SyncTo.
//
// Requiring exact agreement rather than prefix containment trades a
// little liveness for simplicity and safety: while the group is actively
// delivering, honest peers may transiently disagree and the controller
// just asks again (sendRecoverRequests retries on a timer). The chaos
// drain phase quiesces traffic, so honest responses converge and recovery
// terminates. Responses from a different membership phase are ignored —
// a controller that slept through a membership change resynchronizes via
// the membership protocol's state transfer instead.
//
// Adoption ends the mute window but not the session: the adopted snapshot
// is as old as the slowest of its f+1 vouchers, deliveries the group made
// during the transfer are invisible to a mute replica, and nothing in the
// broadcast layer retransmits committed slots. The session therefore keeps
// polling in confirmation rounds — each quorum whose vouched delivery
// horizon advanced past the replica's is re-adopted (replay is
// idempotent, SyncTo monotonic) — and closes only when a round confirms
// no further progress.
//
// Replayed dispatches (and all later dispatches of a recovered
// controller) carry the Resend flag: a switch that already decided the
// update re-acknowledges it instead of staying silent, which is what lets
// the rebuilt scheduler engine release dependents whose acks died with
// the crash.
//
// Switches recover symmetrically but more simply: a restarted switch
// multicasts MsgResyncRequest and every controller retransmits the
// updates it logged for that switch, with fresh signature shares and the
// Resend flag. The flow table rebuilds through the ordinary
// quorum-authentication path, so resynchronization is exactly as hard to
// forge as a first-time update.
//
// Lost shares and events need no driver either: a controller retransmits an
// unacknowledged release (retryRelease), a switch an unanswered event.
package controlplane

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"time"

	"cicero/internal/audit"
	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
)

// recoverySession tracks an in-flight controller recovery.
type recoverySession struct {
	responses map[fabric.NodeID]protocol.MsgRecoverState // keyed by sender
	attempts  int
	// adopted flips when the first f+1-identical state is applied; the
	// replica is mute until then. The session itself lives on through
	// confirmation rounds until a vouched horizon stops advancing.
	adopted bool
	// held buffers broadcast submissions that arrived while the replica
	// was mute; they are submitted after adoption.
	held [][]byte
}

// Recovery retry schedule: how often the recovering controller re-asks
// its peers, and for how long before it gives up (peers answer only when
// they are not recovering themselves, so a retry loop is required — and
// it must terminate so live fabrics can quiesce).
const (
	recoverRetryInterval = 250 * time.Millisecond
	recoverMaxAttempts   = 120
)

// StartRecovery begins crash recovery. Call it once, from the node's
// serial execution context, right after constructing the replacement
// controller. It is a no-op for the centralized baseline (there are no
// peers to recover from).
func (c *Controller) StartRecovery() {
	if c.stopped || c.recovered || (c.recovery != nil && c.recovery.attempts > 0) {
		return
	}
	if c.cfg.Protocol == ProtoCentralized || len(c.members) < 2 {
		c.recovery = nil
		c.recovered = true
		return
	}
	// The session may already exist: a controller built with
	// Config.CrashRecovery is born recovering so its mute window covers
	// every message since registration.
	if c.recovery == nil {
		c.recovery = &recoverySession{responses: make(map[fabric.NodeID]protocol.MsgRecoverState)}
	}
	c.sendRecoverRequests()
	// Metadata moves outside the broadcast, so the event replay below
	// will not restore it; ask peers for their verified sets (store
	// monotonicity discards stale answers).
	c.requestMetaCatchup()
}

// Recovering reports whether a recovery is in flight (started and not yet
// adopted). Confirmation rounds after adoption do not count: the replica
// speaks again as soon as the first vouched state is applied.
func (c *Controller) Recovering() bool {
	return c.recovery != nil && !c.recovery.adopted
}

// Recovered reports whether this controller completed a crash recovery.
func (c *Controller) Recovered() bool { return c.recovered }

// sendRecoverRequests multicasts the recovery request and re-arms the
// retry timer until a consistent quorum of responses is adopted.
func (c *Controller) sendRecoverRequests() {
	if c.stopped || c.recovery == nil {
		return
	}
	if c.recovery.attempts >= recoverMaxAttempts {
		// Give up; a later StartRecovery may be issued by the operator. An
		// adopted session closes for good — only the unconfirmed tail of
		// the catch-up loop is abandoned.
		if c.recovery.adopted {
			c.recovery = nil
		}
		return
	}
	c.recovery.attempts++
	msg := protocol.MsgRecoverRequest{Phase: c.phase}
	for _, m := range c.members {
		if m == c.cfg.ID {
			continue
		}
		c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(m), msg, 64)
	}
	c.cfg.Net.After(fabric.NodeID(c.cfg.ID), recoverRetryInterval, c.sendRecoverRequests)
}

// handleRecoverRequest answers the member that sent the request, a
// restarted peer, with this controller's event history and broadcast
// coordinates. A controller that is itself recovering stays silent: it has
// no authoritative history to vouch for.
func (c *Controller) handleRecoverRequest(from fabric.NodeID, m protocol.MsgRecoverRequest) {
	if c.Recovering() || m.Phase != c.phase || !c.isPeer(from) {
		return
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.MsgProcess)
	resp := protocol.MsgRecoverState{Phase: c.phase}
	if c.replica != nil {
		resp.View = c.replica.View()
		resp.LastDelivered = c.replica.LastDelivered()
	}
	for _, r := range c.ledger.Records() {
		if r.Kind == audit.KindEvent {
			resp.Events = append(resp.Events, r.Canonical)
		}
	}
	size := 64
	for _, e := range resp.Events {
		size += len(e)
	}
	c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), from, resp, size)
}

// handleRecoverState collects one peer's recovery response — one per sending
// member, a later one replacing the earlier — and adopts as soon as f+1
// identical responses exist.
func (c *Controller) handleRecoverState(from fabric.NodeID, m protocol.MsgRecoverState) {
	if c.recovery == nil || m.Phase != c.phase || !c.isPeer(from) {
		return
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.MsgProcess)
	c.recovery.responses[from] = m
	c.tryAdoptRecovery()
}

// recoverStateDigest hashes the adoption-relevant content of a response.
func recoverStateDigest(m protocol.MsgRecoverState) [32]byte {
	h := sha256.New()
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], m.View)
	binary.BigEndian.PutUint64(hdr[8:], m.LastDelivered)
	h.Write(hdr[:])
	for _, e := range m.Events {
		binary.BigEndian.PutUint64(hdr[:8], uint64(len(e)))
		h.Write(hdr[:8])
		h.Write(e)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// tryAdoptRecovery adopts when f+1 byte-identical responses agree.
func (c *Controller) tryAdoptRecovery() {
	need := (len(c.members)-1)/3 + 1
	groups := make(map[[32]byte][]protocol.MsgRecoverState)
	for _, r := range c.recovery.responses {
		d := recoverStateDigest(r)
		groups[d] = append(groups[d], r)
		if len(groups[d]) >= need {
			c.adoptRecovery(groups[d][0])
			return
		}
	}
}

// adoptRecovery replays the vouched event history through the normal
// delivery path and fast-forwards the broadcast replica. First adoption
// ends the mute window; later (confirmation) adoptions apply only the
// progress the group made during the previous transfer, and a round that
// vouches no progress closes the session.
func (c *Controller) adoptRecovery(state protocol.MsgRecoverState) {
	first := !c.recovery.adopted
	if !first && c.replica != nil && state.LastDelivered <= c.replica.LastDelivered() {
		c.recovery = nil // converged: the vouched horizon stopped advancing
		return
	}
	for _, raw := range state.Events {
		ev, err := protocol.DecodeEvent(raw)
		if err != nil {
			continue // a vouched history never contains undecodable events
		}
		if !c.markDelivered(ev) {
			continue
		}
		c.seenEvents[ev.ID.String()] = true
		// One event at a time and never batch-signed: the replayed ledger
		// interleaves events and updates as unbatched delivery did, and the
		// replayed updates leave as per-update shares, which pool with the
		// peers' retransmissions. Every member signs them at once.
		c.replaying = true
		c.processEvents([]protocol.Event{ev}, false)
		c.replaying = false
	}
	if c.replica != nil {
		c.replica.SyncTo(state.View, state.LastDelivered)
	}
	if first {
		c.recovery.adopted = true
		c.recovered = true
		// Un-mute: replay the submissions held back while the replica had
		// no trustworthy coordinates. Delivery-level dedup discards any
		// that the adopted history already covers.
		for _, payload := range c.recovery.held {
			c.pendingSubmit[string(payload)] = payload
			c.replica.Submit(payload)
		}
		c.recovery.held = nil
	}
	// Demand fresh agreement for the next confirmation round; the retry
	// timer chain keeps the requests flowing until convergence.
	c.recovery.responses = make(map[fabric.NodeID]protocol.MsgRecoverState)
}

// handleResyncRequest retransmits every logged update targeting the switch
// that sent the request — one of this domain's, and no other switch on its
// behalf — with fresh signature shares and the Resend flag. It cannot
// install anything a real update could not.
func (c *Controller) handleResyncRequest(from fabric.NodeID) {
	if !slices.Contains(c.cfg.Switches, string(from)) {
		return
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.MsgProcess)
	for _, rec := range c.dispatchLog {
		if len(rec.mods) == 0 || fabric.NodeID(rec.mods[0].Switch) != from {
			continue
		}
		c.retransmit(rec)
	}
}

// retransmit resends one logged update with a fresh share and the Resend
// flag. Always the legacy per-update path: retransmitted shares must combine
// with whatever the other controllers send after their own crashes or ref
// expiry, and only per-update shares are universally poolable. Batching is a
// fast-path optimization, not a recovery dependency.
func (c *Controller) retransmit(rec dispatchRecord) {
	c.sendUpdate(rec.id, rec.phase, rec.mods, openflow.CanonicalUpdateBytes(rec.id, rec.phase, rec.mods), true)
}

// Frozen-horizon watchdog (gap-stall self-recovery).
//
// A replica can wedge without crashing: the agreement traffic for one
// slot is lost to a partition while the rest of the group keeps
// deliving, and once peers garbage-collect past the gap nothing in the
// broadcast layer will ever retransmit it. The replica then sits with
// committed slots piling up above a delivery horizon that can no longer
// move — alive, responsive, and permanently behind. The watchdog below lets
// the controller notice the signature itself (committed slots above an
// uncommittable gap, horizon frozen across a full timeout window) and
// start its own authenticated f+1 recovery, which fast-forwards the
// replica past the dead slot via the vouched-state transfer. It misses one
// shape of the wedge: a view change drops the committed slots it saw, a
// new view re-proposes only above the horizon its votes report, and the
// timer then finds no evidence and is re-armed only by later traffic. A
// supervisor's NudgeRecover is what rescues that replica.

// gapStallDefaultTimeout bounds the watchdog wait when no view-change
// timeout is configured.
const gapStallDefaultTimeout = time.Second

// gapStallTimeout is how long the horizon must stay frozen (with
// committed slots above it) before self-recovery fires. Several
// view-change timeouts: a view change can legitimately resurrect the
// gap slot when peers still hold its agreement state, so the watchdog
// must be the slower mechanism.
func (c *Controller) gapStallTimeout() time.Duration {
	return cmp.Or(4*c.cfg.ViewChangeTimeout, gapStallDefaultTimeout)
}

// checkGapStall arms the watchdog when the wedge signature appears. It
// is called after every atomic-broadcast message; the timer captures
// the current horizon and fires only if it never moved.
func (c *Controller) checkGapStall() {
	if c.replica == nil || c.gapArmed || c.stopped || c.Recovering() {
		return
	}
	if c.replica.GapStalled() == 0 {
		return
	}
	c.gapArmed = true
	horizon := c.replica.LastDelivered()
	c.cfg.Net.After(fabric.NodeID(c.cfg.ID), c.gapStallTimeout(), func() {
		c.onGapStallTimer(horizon)
	})
}

// onGapStallTimer fires one watchdog check: if the horizon is still
// where it was armed and committed slots still sit above it, the gap is
// dead and recovery is the only way forward.
func (c *Controller) onGapStallTimer(horizon uint64) {
	c.gapArmed = false
	if c.stopped || c.replica == nil || c.Recovering() {
		return
	}
	if c.replica.LastDelivered() != horizon || c.replica.GapStalled() == 0 {
		return // progress since arming; re-armed on the next stall
	}
	c.GapRecoveries++
	// Clear the completed-recovery latch: this is a fresh wedge, not a
	// retry of a finished session.
	c.recovered = false
	c.recovery = nil
	c.StartRecovery()
}

// Unacked returns how many released updates still await their switch's
// acknowledgement: a harness waits for none before it judges a quiesced run.
func (c *Controller) Unacked() int { return c.engine.Unacked() }
