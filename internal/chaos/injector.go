package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cicero/internal/bft"
	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
)

// injector is the one network filter: per-message link faults plus
// Byzantine mutation of the designated controller's outgoing traffic,
// adjudicating every admitted message identically on simnet, in-process
// channels and TCP sockets.
//
// On the simulator it runs on the event loop and draws from the campaign's
// own chaos RNG — schedule and filter share one stream, which keeps runs
// seed-deterministic. On live backends it runs on whatever goroutine
// called Send, so it gets a separate RNG and every draw is locked.
type injector struct {
	c        *campaign
	mu       sync.Mutex
	rng      *rand.Rand
	forgeSeq uint64
}

// byzMutateProb is the chance the Byzantine controller tampers with one of
// its own outgoing shares or proposals.
const byzMutateProb = 0.3

func (in *injector) filter(from, to fabric.NodeID, msg fabric.Message, size int) fabric.FaultAction {
	in.mu.Lock()
	defer in.mu.Unlock()
	c := in.c
	var act fabric.FaultAction

	// Byzantine mutation of the designated controller's own traffic.
	if c.byz != "" && from == c.byz {
		if replaced := in.byzMutate(to, msg); replaced != nil {
			act.Replace = replaced
			msg = replaced
		}
	}

	lf := c.p.Link
	if lf.DropProb > 0 && in.rng.Float64() < lf.DropProb {
		c.count("drop", 1)
		c.note("inj-drop", fmt.Sprintf("%s->%s %T", from, to, msg))
		return fabric.FaultAction{Drop: true}
	}
	if lf.CorruptProb > 0 && in.rng.Float64() < lf.CorruptProb {
		if corrupted := corruptMessage(msg); corrupted != nil {
			act.Replace = corrupted
			c.count("corrupt", 1)
			c.note("inj-corrupt", fmt.Sprintf("%s->%s %T", from, to, msg))
		}
	}
	if lf.DupProb > 0 && in.rng.Float64() < lf.DupProb {
		act.Duplicates = 1
		c.count("dup", 1)
		c.note("inj-dup", fmt.Sprintf("%s->%s %T", from, to, msg))
	}
	if lf.DelayProb > 0 && in.rng.Float64() < lf.DelayProb {
		act.Delay = time.Duration(in.rng.Int63n(int64(maxLinkDelay)))
		c.count("delay", 1)
		c.note("inj-delay", fmt.Sprintf("%s->%s %T +%v", from, to, msg, act.Delay))
	}
	return act
}

// bftString renders a broadcast message compactly for a live replay's
// tap. The messages name no sender; the tap prints the fabric's from->to
// before it.
func bftString(m protocol.MsgBFT) string {
	switch in := m.Inner.(type) {
	case bft.Request:
		return fmt.Sprintf("Request len=%d", len(in.Payload))
	case bft.PrePrepare:
		return fmt.Sprintf("PrePrepare v=%d seq=%d d=%x", in.View, in.Seq, in.Digest[:4])
	case bft.Prepare:
		return fmt.Sprintf("Prepare v=%d seq=%d d=%x", in.View, in.Seq, in.Digest[:4])
	case bft.Commit:
		return fmt.Sprintf("Commit v=%d seq=%d d=%x", in.View, in.Seq, in.Digest[:4])
	case bft.ViewChange:
		return fmt.Sprintf("ViewChange nv=%d prep=%d ld=%d", in.NewView, len(in.Prepared), in.LastDelivered)
	case bft.NewView:
		return fmt.Sprintf("NewView v=%d pps=%d", in.View, len(in.PrePrepares))
	default:
		return fmt.Sprintf("%T", m.Inner)
	}
}

// corruptMessage returns a deep-copied message with one payload byte
// flipped, or nil for message types the injector leaves alone. Only
// authenticated payloads are corrupted: events, acks, shares, and
// aggregates all carry signatures that real crypto rejects. BFT transport
// is modeled as an authenticated channel (the enclosing layer seals it),
// so flipping its bytes would simulate a broken transport, not a network
// fault, and is off-limits; so is MsgConfig (threshold-signed, but only
// sent on membership changes that campaigns do not exercise).
func corruptMessage(msg fabric.Message) fabric.Message {
	flip := func(b []byte) []byte {
		if len(b) == 0 {
			return b
		}
		out := append([]byte(nil), b...)
		out[len(out)/2] ^= 0x40
		return out
	}
	switch m := msg.(type) {
	case protocol.MsgEvent:
		m.Env.Payload = flip(m.Env.Payload)
		return m
	case protocol.MsgAck:
		m.Env.Payload = flip(m.Env.Payload)
		return m
	case protocol.MsgUpdate:
		if len(m.Share) > 0 {
			m.Share = flip(m.Share)
		} else {
			m.ShareIndex = 0 // malformed share
		}
		return m
	case protocol.MsgAggUpdate:
		m.Signature = flip(m.Signature)
		return m
	case protocol.MsgBatchUpdate:
		if len(m.Share) > 0 {
			m.Share = flip(m.Share)
		} else if len(m.Proof) > 0 {
			proof := make([][]byte, len(m.Proof))
			copy(proof, m.Proof)
			proof[0] = flip(proof[0])
			m.Proof = proof
		} else {
			m.ShareIndex = 0 // malformed share
		}
		return m
	}
	return nil
}

// byzMutate tampers with the Byzantine controller's outgoing message, or
// returns nil to send it untouched. Mutations are the paper's §2 threat
// model: bad signature shares, shares under a stale epoch, equivocating
// proposals. They must never fabricate data that would pass verification —
// the point is proving the protocol rejects them.
func (in *injector) byzMutate(to fabric.NodeID, msg fabric.Message) fabric.Message {
	c := in.c
	var (
		out    fabric.Message
		kind   string
		detail string
	)
	switch m := msg.(type) {
	case protocol.MsgUpdate:
		mut, k := byzMutateUpdate(in.rng, len(c.ctls), m)
		out, kind, detail = mut, k, mut.UpdateID.String()
	case protocol.MsgBatchUpdate:
		mut, k := byzMutateBatch(in.rng, m)
		out, kind, detail = mut, k, mut.UpdateID.String()
	case protocol.MsgBFT:
		mut, k := byzMutateBFT(in.rng, c.hosts, &in.forgeSeq, m)
		if k != "" {
			out, kind, detail = mut, k, fmt.Sprintf("seq=%d", mut.Inner.(bft.PrePrepare).Seq)
		}
	}
	if kind == "" {
		return nil
	}
	c.count(kind, 1)
	c.note(kind, fmt.Sprintf("->%s %s", to, detail))
	return out
}

// byzMutateUpdate applies one of the share mutations (garbage bytes, a
// stolen share index, a stale epoch), drawing the gate and the choice from
// rng in a fixed order so seeded runs stay deterministic. It returns the
// (possibly mutated) message and the mutation kind ("" = untouched).
func byzMutateUpdate(rng *rand.Rand, nctls int, m protocol.MsgUpdate) (protocol.MsgUpdate, string) {
	if rng.Float64() >= byzMutateProb {
		return m, ""
	}
	switch rng.Intn(3) {
	case 0: // garbage share bytes
		m.Share = garbageBytes(rng, len(m.Share))
		return m, "byz-bad-share"
	case 1: // claim another controller's share index
		m.ShareIndex = m.ShareIndex%uint32(nctls) + 1
		return m, "byz-wrong-index"
	default: // stale-epoch share
		m.Phase += 1000
		return m, "byz-stale-phase"
	}
}

// byzMutateBatch applies one of the batch-path mutations: a forged batch
// root (the inclusion proof can no longer verify), a content splice (the
// rule bytes change under the honest root and proof — exactly what the
// Merkle binding must reject), or a garbage root share (the per-batch
// aggregate must fail and keep the batch pending for honest shares).
func byzMutateBatch(rng *rand.Rand, m protocol.MsgBatchUpdate) (protocol.MsgBatchUpdate, string) {
	if rng.Float64() >= byzMutateProb {
		return m, ""
	}
	switch rng.Intn(3) {
	case 0: // forged batch root
		m.BatchRoot = garbageBytes(rng, len(m.BatchRoot))
		return m, "byz-forged-root"
	case 1: // splice forged rule content under the honest root+proof
		mods := append([]openflow.FlowMod(nil), m.Mods...)
		for i := range mods {
			mods[i].Rule.Action = openflow.Action{Type: openflow.ActionOutput, NextHop: "byz/blackhole"}
		}
		m.Mods = mods
		return m, "byz-batch-splice"
	default: // garbage root share
		m.Share = garbageBytes(rng, len(m.Share))
		return m, "byz-bad-root-share"
	}
}

// byzMutateBFT equivocates on a PrePrepare: it proposes a different
// (well-formed) payload to this receiver, with a digest that matches the
// forged payload so only the agreement protocol itself can catch the lie.
// The forged event names real hosts: if it ever got ordered it would
// install consistent rules, so any invariant violation it caused would be
// the protocol's fault, not malformed input.
func byzMutateBFT(rng *rand.Rand, hosts []string, forgeSeq *uint64, m protocol.MsgBFT) (protocol.MsgBFT, string) {
	pp, ok := m.Inner.(bft.PrePrepare)
	if !ok || rng.Float64() >= byzMutateProb {
		return m, ""
	}
	*forgeSeq++
	ev := protocol.Event{
		ID:   openflow.MsgID{Origin: "byz/equiv", Seq: *forgeSeq},
		Kind: protocol.EventFlowRequest,
		Src:  hosts[rng.Intn(len(hosts))],
		Dst:  hosts[rng.Intn(len(hosts))],
	}
	payload := protocol.BroadcastItem{Event: &ev}.Encode()
	pp.Payload = payload
	pp.Digest = bft.PayloadDigest(payload)
	m.Inner = pp
	return m, "byz-equivocate"
}

// garbageBytes returns n deterministic pseudo-random bytes (not a valid
// curve point with overwhelming probability).
func garbageBytes(rng *rand.Rand, n int) []byte {
	if n == 0 {
		n = 33
	}
	out := make([]byte, n)
	rng.Read(out)
	return out
}
