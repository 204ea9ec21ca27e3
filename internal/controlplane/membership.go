package controlplane

import (
	"crypto/rand"
	"fmt"
	"sort"

	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/dkg"
	"cicero/internal/tcrypto/pki"
)

// This file implements control-plane membership changes (Fig. 8 of the
// paper): additions initiated by the trusted bootstrap controller and
// removals proposed by any member (typically after failure detection).
// A change is agreed through the atomic broadcast, after which the
// distributed resharing re-deals key shares for the new quorum size while
// keeping the group public key fixed. Events delivered during the change
// are queued and re-broadcast in the new phase, so members never hold old
// and new shares concurrently.

// bufferedBFT is an atomic-broadcast message from the next epoch, held
// until the local membership change completes.
type bufferedBFT struct {
	from fabric.NodeID
	msg  protocol.MsgBFT
}

// changeState tracks one in-progress membership change.
type changeState struct {
	op         protocol.MembershipOp
	subject    pki.Identity
	newMembers []pki.Identity
	newPhase   uint64
	tNew       int

	dealerIDs  []pki.Identity
	dealerSet  []uint32 // dealer share indices in the old sharing
	receiver   *dkg.ReshareReceiver
	dealsGot   map[uint32]bool
	subsGot    map[uint32]bool
	myNewIndex uint32

	// pendingSubs holds the sub-share that overtook its dealer's deal on
	// the wire (per-message jitter reorders them), one per dealer; it
	// replays once the deal arrives.
	pendingSubs map[uint32]protocol.MsgReshareSub

	queued []protocol.Event
	// futureBFT holds the new epoch's atomic-broadcast frames that arrived
	// before this controller finished the change, futureHeld[i] of them
	// from newMembers[i] (holdBFT).
	futureBFT  []bufferedBFT
	futureHeld []int
}

// maxFutureBFT bounds the frames a change holds per sender. Members finish
// a reshare on the same deals and sub-shares, so none had ordered anything
// in the new phase by the time another finished: the buffer never held a
// frame in 150 seeds of the metadata chaos campaign (25 of them batched),
// in the whole test suite, or in live metadata campaigns on inproc and
// tcp. 128 is room for a request, a pre-prepare, a prepare and a commit
// of 32 slots.
const maxFutureBFT = 128

// holdBFT keeps a frame from a later epoch for completeChange to replay,
// if it can count there: the replay goes to the replica of newMembers at
// newPhase, and handleBFT drops every other sender and phase then. Each
// member gets at most maxFutureBFT frames.
func (st *changeState) holdBFT(from fabric.NodeID, m protocol.MsgBFT) {
	if m.Phase != st.newPhase {
		return
	}
	for i, id := range st.newMembers {
		if fabric.NodeID(id) != from {
			continue
		}
		if st.futureHeld == nil {
			st.futureHeld = make([]int, len(st.newMembers))
		}
		if st.futureHeld[i] < maxFutureBFT {
			st.futureHeld[i]++
			st.futureBFT = append(st.futureBFT, bufferedBFT{from: from, msg: m})
		}
		return
	}
}

// RequestAddController asks the control plane to admit a new member. Only
// the trusted bootstrap controller may initiate additions (§4.3); the new
// controller's identity keys must already be registered in the directory.
func (c *Controller) RequestAddController(id pki.Identity) error {
	if !c.cfg.Bootstrap {
		return fmt.Errorf("controlplane: %q is not the bootstrap controller", c.cfg.ID)
	}
	if c.memberSlot(id) >= 0 {
		return fmt.Errorf("controlplane: %q is already a member", id)
	}
	c.submitItem(protocol.BroadcastItem{
		Membership: &protocol.MembershipChange{Op: protocol.MemberAdd, Controller: id},
	})
	return nil
}

// RequestRemoveController proposes removing a member (failure detection or
// administrative action). Any member may propose.
func (c *Controller) RequestRemoveController(id pki.Identity) error {
	if c.memberSlot(id) < 0 {
		return fmt.Errorf("controlplane: %q is not a member", id)
	}
	c.submitItem(protocol.BroadcastItem{
		Membership: &protocol.MembershipChange{Op: protocol.MemberRemove, Controller: id},
	})
	return nil
}

// onMembershipDelivered begins a membership change once the atomic
// broadcast orders it (Fig. 8c). Changes are strictly one at a time.
func (c *Controller) onMembershipDelivered(mc protocol.MembershipChange) {
	if c.cfg.Protocol != ProtoCicero {
		return
	}
	if c.change != nil {
		return // lock-step: a change is already in progress
	}
	var newMembers []pki.Identity
	switch mc.Op {
	case protocol.MemberAdd:
		if c.memberSlot(mc.Controller) >= 0 {
			return
		}
		newMembers = append(append([]pki.Identity(nil), c.members...), mc.Controller)
	case protocol.MemberRemove:
		if c.memberSlot(mc.Controller) < 0 {
			return
		}
		for _, m := range c.members {
			if m != mc.Controller {
				newMembers = append(newMembers, m)
			}
		}
	default:
		return
	}
	if len(newMembers) < 4 {
		return // the paper requires n >= 4 at all times (§3.2)
	}
	tOld := CiceroQuorum(len(c.members))
	tNew := CiceroQuorum(len(newMembers))

	// Dealers: the first tOld old members that survive the change (for a
	// removal, the removed member cannot deal).
	var dealerIDs []pki.Identity
	var dealerSet []uint32
	for slot, m := range c.members {
		if mc.Op == protocol.MemberRemove && m == mc.Controller {
			continue
		}
		dealerIDs = append(dealerIDs, m)
		dealerSet = append(dealerSet, uint32(slot+1))
		if len(dealerIDs) == tOld {
			break
		}
	}
	st := &changeState{
		op:          mc.Op,
		subject:     mc.Controller,
		newMembers:  newMembers,
		newPhase:    c.phase + 1,
		tNew:        tNew,
		dealerIDs:   dealerIDs,
		dealerSet:   dealerSet,
		dealsGot:    make(map[uint32]bool),
		subsGot:     make(map[uint32]bool),
		pendingSubs: make(map[uint32]protocol.MsgReshareSub),
	}
	c.change = st

	// Members of the new group receive shares.
	for i, m := range newMembers {
		if m == c.cfg.ID {
			st.myNewIndex = uint32(i + 1)
		}
	}
	if st.myNewIndex > 0 {
		recv, err := dkg.NewReshareReceiver(c.cfg.Scheme, c.cfg.GroupKey, st.myNewIndex, tNew, len(newMembers))
		if err == nil {
			st.receiver = recv
		}
	}

	// The bootstrap controller transfers state to a joining controller
	// (§4.3 step i/iv) before resharing reaches it.
	if mc.Op == protocol.MemberAdd && c.cfg.Bootstrap {
		c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(mc.Controller), protocol.MsgStateTransfer{
			Phase:       c.phase,
			NewPhase:    st.newPhase,
			Members:     c.Members(),
			NewMembers:  append([]pki.Identity(nil), newMembers...),
			GroupKey:    c.cfg.GroupKey,
			PeerDomains: c.cfg.PeerDomains,
		}, 4096)
	}

	// Removed member: it simply installs the new view and retires.
	if st.myNewIndex == 0 {
		c.completeChange(bls.KeyShare{}, c.cfg.GroupKey)
		return
	}

	// Dealers re-deal their Lagrange-weighted shares (§3.2 DKG).
	if c.isDealer(st) {
		c.dealReshare(st)
	}
	c.drainEarlyReshare()
}

// isDealer reports whether this controller deals in the current change.
func (c *Controller) isDealer(st *changeState) bool {
	for _, id := range st.dealerIDs {
		if id == c.cfg.ID {
			return true
		}
	}
	return false
}

// dealReshare produces and distributes this dealer's reshare contribution.
func (c *Controller) dealReshare(st *changeState) {
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.ReshareCompute)
	newIndices := make([]uint32, len(st.newMembers))
	for i := range st.newMembers {
		newIndices[i] = uint32(i + 1)
	}
	deal, subs, err := dkg.ReshareDealer(c.cfg.Scheme, rand.Reader, c.cfg.Share, st.dealerSet, st.tNew, newIndices)
	if err != nil {
		return
	}
	for i, m := range st.newMembers {
		dealMsg := protocol.MsgReshareDeal{Phase: st.newPhase, Deal: deal}
		subMsg := protocol.MsgReshareSub{Phase: st.newPhase, Sub: subs[i]}
		if m == c.cfg.ID {
			c.handleReshareDeal(dealMsg)
			c.handleReshareSub(subMsg)
			continue
		}
		c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(m), dealMsg, 2048)
		c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(m), subMsg, 256)
	}
}

// earlyReshare holds reshare traffic that raced ahead of the local
// membership-change delivery (or of the joiner's state transfer): at most
// one deal and one sub-share per dealer, so no more than the membership
// size however much arrives.
type earlyReshare struct {
	deals []protocol.MsgReshareDeal
	subs  []protocol.MsgReshareSub
}

// holdOne keeps m in an early buffer, in place of the entry with the same
// key if there is one: the buffers hold one message per dealer (reshare)
// or share index (config), in arrival order.
func holdOne[T any](held []T, m T, key func(T) uint32) []T {
	for i := range held {
		if key(held[i]) == key(m) {
			held[i] = m
			return held
		}
	}
	return append(held, m)
}

// sentByDealer reports whether from is the old-group member holding share
// index dealer — the only sender whose deal or sub-share under that index
// is looked at. Dealer indices are membership slots (1-based), before and
// after every reshare.
func (c *Controller) sentByDealer(from fabric.NodeID, dealer uint32) bool {
	return dealer >= 1 && int(dealer) <= len(c.members) && fabric.NodeID(c.members[dealer-1]) == from
}

// holdsEarly reports whether reshare traffic for phase may wait in the
// early buffer: it belongs to the change right after this controller's
// phase, which its broadcast has yet to deliver. A controller outside the
// membership — a joiner before its state transfer — does not know the
// phase and holds whatever its dealers send.
func (c *Controller) holdsEarly(phase uint64) bool {
	return phase == c.phase+1 || c.memberSlot(c.cfg.ID) < 0
}

// handleReshareDeal validates and records a dealer's broadcast (the
// sender was checked against the dealer index in HandleMessage).
func (c *Controller) handleReshareDeal(m protocol.MsgReshareDeal) {
	if m.Deal == nil {
		return
	}
	st := c.change
	if st == nil || st.receiver == nil || m.Phase != st.newPhase {
		if c.holdsEarly(m.Phase) {
			c.early.deals = holdOne(c.early.deals, m, func(d protocol.MsgReshareDeal) uint32 { return d.Deal.Dealer })
		}
		return
	}
	if st.dealsGot[m.Deal.Dealer] {
		return
	}
	if err := st.receiver.HandleDeal(m.Deal); err != nil {
		return // Byzantine dealer: its deal is ignored
	}
	st.dealsGot[m.Deal.Dealer] = true
	// Replay the sub-share that overtook this deal.
	if sub, ok := st.pendingSubs[m.Deal.Dealer]; ok {
		delete(st.pendingSubs, m.Deal.Dealer)
		c.handleReshareSub(sub)
	}
	c.tryFinishChange()
}

// handleReshareSub validates and records a dealer's private sub-share
// (the sender was checked against the dealer index in HandleMessage).
func (c *Controller) handleReshareSub(m protocol.MsgReshareSub) {
	st := c.change
	if st == nil || st.receiver == nil || m.Phase != st.newPhase {
		if c.holdsEarly(m.Phase) {
			c.early.subs = holdOne(c.early.subs, m, func(s protocol.MsgReshareSub) uint32 { return s.Sub.Dealer })
		}
		return
	}
	if st.subsGot[m.Sub.Dealer] {
		return
	}
	// A sub-share can overtake its dealer's deal (independent per-message
	// jitter); the receiver cannot verify it yet, so hold it until the
	// deal lands rather than dropping it and stalling the reshare.
	if !st.dealsGot[m.Sub.Dealer] {
		st.pendingSubs[m.Sub.Dealer] = m
		return
	}
	if err := st.receiver.HandleSubShare(m.Sub); err != nil {
		return
	}
	st.subsGot[m.Sub.Dealer] = true
	c.tryFinishChange()
}

// drainEarlyReshare replays buffered reshare traffic.
func (c *Controller) drainEarlyReshare() {
	deals := c.early.deals
	subs := c.early.subs
	c.early.deals = nil
	c.early.subs = nil
	for _, d := range deals {
		c.handleReshareDeal(d)
	}
	for _, s := range subs {
		c.handleReshareSub(s)
	}
}

// tryFinishChange finalizes the reshare once every dealer's deal and
// sub-share arrived.
func (c *Controller) tryFinishChange() {
	st := c.change
	if st == nil || st.receiver == nil {
		return
	}
	for _, idx := range st.dealerSet {
		if !st.dealsGot[idx] || !st.subsGot[idx] {
			return
		}
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.ReshareCompute)
	newShare, newGK, err := st.receiver.Finalize(st.dealerSet)
	if err != nil {
		return
	}
	c.completeChange(newShare, newGK)
}

// completeChange installs the new membership epoch: new share and group
// key (same public key), new atomic-broadcast group, config push to
// switches, requeued events, and the cross-domain membership notice.
func (c *Controller) completeChange(newShare bls.KeyShare, newGK *bls.GroupKey) {
	st := c.change
	c.change = nil
	c.members = st.newMembers
	c.phase = st.newPhase
	c.cfg.Share = newShare
	c.cfg.GroupKey = newGK
	c.Reshares++
	// Old-phase batch refs can never be dispatched again (dispatchUpdate
	// requires a same-phase ref and falls back to legacy per-update shares
	// across phases), so drop them with the phase.
	c.batchOf = make(map[string]*batchRef)
	// Likewise the previous phase's config shares are never read again.
	c.configShares, c.configDone = make(map[uint32][]byte), false
	if err := c.rebuildReplica(); err != nil {
		c.replica = nil
	}
	// Replay atomic-broadcast traffic that arrived for the new epoch.
	buffered := st.futureBFT
	for _, b := range buffered {
		c.handleBFT(b.from, b.msg)
	}
	// Resubmit our undelivered submissions and the queued events in the
	// new phase; delivery-level dedup collapses duplicates.
	if c.replica != nil {
		// Sorted for deterministic resubmission order (map iteration would
		// otherwise vary run to run and break bit-identical replays).
		keys := make([]string, 0, len(c.pendingSubmit))
		for k := range c.pendingSubmit {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c.replica.Submit(c.pendingSubmit[k])
		}
		for _, ev := range st.queued {
			ev := ev
			c.submitItem(protocol.BroadcastItem{Event: &ev})
		}
	}
	// Push the new configuration (quorum, members, aggregator) to
	// switches, threshold-signed under the unchanged public key. Drain
	// config shares that raced ahead of our own phase switch first.
	if c.memberSlot(c.cfg.ID) >= 0 {
		earlyCfg := c.earlyConfig
		c.earlyConfig = nil
		for _, m := range earlyCfg {
			c.handleConfigShare(m)
		}
		c.PushConfig()
		if c.leaderForForwarding() {
			c.announceMembershipToPeers()
		}
		// Re-delegate the metadata roles to the new membership: the next
		// root retires departed members' role keys, and the fresh Feldman
		// commitments already invalidate every pre-reshare BLS share.
		c.rotateRootAfterChange()
	}
}

// announceMembershipToPeers sends the §4.3 final-step notice to every
// other domain so forwarded events keep reaching valid recipients.
func (c *Controller) announceMembershipToPeers() {
	if len(c.cfg.PeerDomains) == 0 {
		return
	}
	info := fmt.Sprintf("%d|", c.cfg.Domain)
	for i, m := range c.members {
		if i > 0 {
			info += "|"
		}
		info += string(m)
	}
	ev := protocol.Event{
		ID:        openflow.MsgID{Origin: string(c.cfg.ID) + "/member", Seq: c.phase},
		Kind:      protocol.EventMembershipInfo,
		Forwarded: true,
		Info:      info,
	}
	payload := ev.Encode()
	for dom := range c.cfg.PeerDomains {
		if dom != c.cfg.Domain {
			c.sendEventToDomain(dom, payload)
		}
	}
}

// handleStateTransfer bootstraps this (joining) controller with the old
// membership view and key material, then sets up its reshare receiver. It
// listens only to a member of the control plane it was provisioned with,
// and only to key material under the provisioned public key (the check a
// switch makes in handleConfig).
func (c *Controller) handleStateTransfer(from fabric.NodeID, m protocol.MsgStateTransfer) {
	if c.cfg.Protocol != ProtoCicero || c.change != nil || c.memberSlot(c.cfg.ID) >= 0 {
		return // no membership protocol, or already initialized
	}
	gk, ok := m.GroupKey.(*bls.GroupKey)
	if !ok || gk == nil || c.memberSlot(pki.Identity(from)) < 0 || !gk.PK.Point.Equal(c.cfg.GroupKey.PK.Point) {
		return
	}
	c.members = append([]pki.Identity(nil), m.Members...)
	c.phase = m.Phase
	c.cfg.GroupKey = gk
	if m.PeerDomains != nil {
		c.cfg.PeerDomains = m.PeerDomains
	}
	tOld := CiceroQuorum(len(m.Members))
	var dealerIDs []pki.Identity
	var dealerSet []uint32
	for slot, mem := range m.Members {
		dealerIDs = append(dealerIDs, mem)
		dealerSet = append(dealerSet, uint32(slot+1))
		if len(dealerIDs) == tOld {
			break
		}
	}
	st := &changeState{
		op:          protocol.MemberAdd,
		subject:     c.cfg.ID,
		newMembers:  append([]pki.Identity(nil), m.NewMembers...),
		newPhase:    m.NewPhase,
		tNew:        CiceroQuorum(len(m.NewMembers)),
		dealerIDs:   dealerIDs,
		dealerSet:   dealerSet,
		dealsGot:    make(map[uint32]bool),
		subsGot:     make(map[uint32]bool),
		pendingSubs: make(map[uint32]protocol.MsgReshareSub),
	}
	for i, mem := range st.newMembers {
		if mem == c.cfg.ID {
			st.myNewIndex = uint32(i + 1)
		}
	}
	recv, err := dkg.NewReshareReceiver(c.cfg.Scheme, gk, st.myNewIndex, st.tNew, len(st.newMembers))
	if err != nil {
		return
	}
	st.receiver = recv
	c.change = st
	c.drainEarlyReshare()
}
