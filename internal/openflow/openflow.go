// Package openflow models the southbound API between the control plane
// and data-plane switches: flow-table matches and actions, FlowMod, and the
// Cicero extension of signed messages with unique identifiers (§5.1 of the
// paper: "We extend the OpenFlow message protocol to add new message types
// for signed messages, and add a unique identifier to each message to
// prevent duplicate processing of events and updates"). Of the standard
// unauthenticated vocabulary only PacketOut is modelled, as the attack of
// §2.2 that a Cicero switch refuses.
package openflow

import (
	"fmt"
	"strconv"
)

// Wildcard matches any value in a match field.
const Wildcard = "*"

// Match selects packets by flow endpoints. Cicero's simulation routes at
// host granularity, so a match is a (src, dst) pair where either side may
// be the Wildcard.
type Match struct {
	Src string
	Dst string
}

// Covers reports whether the match selects a packet from src to dst.
func (m Match) Covers(src, dst string) bool {
	return (m.Src == Wildcard || m.Src == src) && (m.Dst == Wildcard || m.Dst == dst)
}

// String renders the match for logs.
func (m Match) String() string { return m.Src + "->" + m.Dst }

func (m Match) appendTo(b []byte) []byte {
	b = append(b, m.Src...)
	b = append(b, "->"...)
	return append(b, m.Dst...)
}

// ActionType distinguishes forwarding from dropping.
type ActionType int

// Action types. Start at 1 so the zero value is invalid.
const (
	ActionOutput ActionType = iota + 1
	ActionDrop
)

// Action is what a switch does with a matching packet.
type Action struct {
	Type ActionType
	// NextHop is the neighbor node the packet is forwarded to when Type
	// is ActionOutput. The simulation uses next-hop node ids in place of
	// physical port numbers.
	NextHop string
}

// String renders the action for logs.
func (a Action) String() string {
	if a.Type == ActionDrop {
		return "drop"
	}
	return "output:" + a.NextHop
}

func (a Action) appendTo(b []byte) []byte {
	if a.Type == ActionDrop {
		return append(b, "drop"...)
	}
	b = append(b, "output:"...)
	return append(b, a.NextHop...)
}

// Rule is one flow-table entry.
type Rule struct {
	Priority int
	Match    Match
	Action   Action
	// Cookie tags the rule with the update that installed it, easing
	// deletion and audit.
	Cookie uint64
}

// String renders the rule for logs.
func (r Rule) String() string { return string(r.appendTo(nil)) }

func (r Rule) appendTo(b []byte) []byte {
	b = append(b, "[prio="...)
	b = strconv.AppendInt(b, int64(r.Priority), 10)
	b = append(b, ' ')
	b = r.Match.appendTo(b)
	b = append(b, ' ')
	b = r.Action.appendTo(b)
	b = append(b, " cookie="...)
	b = strconv.AppendUint(b, r.Cookie, 10)
	return append(b, ']')
}

// FlowModOp is the operation of a FlowMod.
type FlowModOp int

// FlowMod operations. Start at 1 so the zero value is invalid.
const (
	FlowAdd FlowModOp = iota + 1
	FlowDelete
)

// String names the operation.
func (op FlowModOp) String() string {
	switch op {
	case FlowAdd:
		return "add"
	case FlowDelete:
		return "del"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// FlowMod installs or removes a rule on one switch.
type FlowMod struct {
	Op     FlowModOp
	Switch string
	Rule   Rule
}

// String renders the mod canonically; it doubles as the byte payload that
// gets threshold-signed, so it must be deterministic across controllers.
func (fm FlowMod) String() string { return string(fm.appendTo(nil)) }

func (fm FlowMod) appendTo(b []byte) []byte {
	b = append(b, fm.Op.String()...)
	b = append(b, '@')
	b = append(b, fm.Switch...)
	return fm.Rule.appendTo(b)
}

// MsgID uniquely identifies an event or update to prevent duplicate
// processing. Origin disambiguates counters kept by different sources.
type MsgID struct {
	Origin string
	Seq    uint64
}

// String renders the id for logs and signatures.
func (id MsgID) String() string { return string(id.AppendTo(nil)) }

// AppendTo appends the id as String renders it. The signed strings and map
// keys built around an id are put together in one buffer, on every update
// at every node, so they do not go through fmt.
func (id MsgID) AppendTo(b []byte) []byte {
	b = append(b, id.Origin...)
	b = append(b, '#')
	return strconv.AppendUint(b, id.Seq, 10)
}

// PacketOut injects a packet into the data plane — the primitive a
// malicious controller can abuse (§2.2), which Cicero's quorum
// authentication neutralizes.
type PacketOut struct {
	ID      MsgID
	Switch  string
	Src     string
	Dst     string
	Payload string
}

// CanonicalUpdateBytes serializes an update (its id, phase and mods) into
// the deterministic byte string that controllers threshold-sign and
// switches verify. All correct controllers must produce identical bytes
// for the same logical update.
func CanonicalUpdateBytes(id MsgID, phase uint64, mods []FlowMod) []byte {
	b := make([]byte, 0, 64+64*len(mods))
	b = append(b, "update|"...)
	b = id.AppendTo(b)
	b = append(b, "|phase="...)
	b = strconv.AppendUint(b, phase, 10)
	for _, m := range mods {
		b = append(b, '|')
		b = m.appendTo(b)
	}
	return b
}
