package dataplane

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"cicero/internal/openflow"
	"cicero/internal/protocol"
)

// TestSignedStringsPinned pins, byte for byte, the strings that get
// threshold-signed, Ed25519-signed, link-tagged, ordered, ledgered or used as
// map keys on the update path: openflow.CanonicalUpdateBytes,
// protocol.BatchBytes, protocol.BatchReleaseBytes, updateKey, and the binary
// payloads Event.Encode, Ack.Encode and BroadcastItem.Encode (a kind byte,
// then the fields; in hex here). Every controller must produce the same
// bytes for the same update and every switch must rebuild them to verify, so
// a change here splits a deployment; trace and ledger digests only notice
// downstream, and not which string moved.
func TestSignedStringsPinned(t *testing.T) {
	root := make([]byte, 32)
	for i := range root {
		root[i] = byte(i * 9)
	}
	const rootHex = "0009121b242d363f48515a636c757e879099a2abb4bdc6cfd8e1eaf3fc050e17"
	plain := openflow.MsgID{Origin: "d0-p0-tor1", Seq: 42}
	odd := openflow.MsgID{Origin: "ctl/1#x", Seq: 0}
	big := openflow.MsgID{Origin: "", Seq: math.MaxUint64}
	output := openflow.FlowMod{Op: openflow.FlowAdd, Switch: "s1", Rule: openflow.Rule{
		Priority: 10,
		Match:    openflow.Match{Src: "h1", Dst: "h2"},
		Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "s2"},
		Cookie:   7,
	}}
	drop := openflow.FlowMod{Op: openflow.FlowDelete, Switch: "s2", Rule: openflow.Rule{
		Match:  openflow.Match{Src: openflow.Wildcard, Dst: "h2"},
		Action: openflow.Action{Type: openflow.ActionDrop},
	}}
	strange := openflow.FlowMod{Op: openflow.FlowModOp(7), Switch: "", Rule: openflow.Rule{
		Priority: -3,
		Cookie:   math.MaxUint64,
	}}

	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"update/output+drop", openflow.CanonicalUpdateBytes(plain, 3, []openflow.FlowMod{output, drop}),
			"update|d0-p0-tor1#42|phase=3|add@s1[prio=10 h1->h2 output:s2 cookie=7]|del@s2[prio=0 *->h2 drop cookie=0]"},
		{"update/no-mods", openflow.CanonicalUpdateBytes(odd, 0, nil),
			"update|ctl/1#x#0|phase=0"},
		{"update/strange", openflow.CanonicalUpdateBytes(big, math.MaxUint64, []openflow.FlowMod{strange}),
			"update|#18446744073709551615|phase=18446744073709551615|op(7)@[prio=-3 -> output: cookie=18446744073709551615]"},
		{"flowmod-string", []byte(output.String()),
			"add@s1[prio=10 h1->h2 output:s2 cookie=7]"},
		{"rule-string", []byte(drop.Rule.String()),
			"[prio=0 *->h2 drop cookie=0]"},
		{"msgid-string", []byte(odd.String()),
			"ctl/1#x#0"},
		{"batch", protocol.BatchBytes(5, root),
			"batch|phase=5|root=" + rootHex},
		{"batch/nil-root", protocol.BatchBytes(0, nil),
			"batch|phase=0|root="},
		{"batch-release", protocol.BatchReleaseBytes(plain, 5, root),
			"batch-release|update=d0-p0-tor1#42|phase=5|root=" + rootHex},
		{"batch-release/odd-origin", protocol.BatchReleaseBytes(odd, math.MaxUint64, root[:1]),
			"batch-release|update=ctl/1#x#0|phase=18446744073709551615|root=00"},
		{"update-key", []byte(updateKey(plain, 3)),
			"d0-p0-tor1#42|3"},
		{"update-key/odd-origin", []byte(updateKey(odd, 0)),
			"ctl/1#x#0|0"},
		{"update-key/max", []byte(updateKey(big, math.MaxUint64)),
			"#18446744073709551615|18446744073709551615"},
	} {
		if !bytes.Equal(tc.got, []byte(tc.want)) {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, tc.got, tc.want)
		}
	}

	request := protocol.Event{ID: plain, Kind: protocol.EventFlowRequest, Src: "h1", Dst: "h2"}
	forwarded := protocol.Event{ID: odd, Kind: protocol.EventMembershipInfo, Cookie: math.MaxUint64, Forwarded: true, Info: "1|a|b"}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"event/flow-request", request.Encode(), "500a64302d70302d746f72312a02026831026832000000"},
		{"event/forwarded", forwarded.Encode(), "500763746c2f312378000a0000ffffffffffffffffff010105317c617c62"},
		{"ack/applied", protocol.Ack{UpdateID: plain, Applied: true}.Encode(), "510a64302d70302d746f72312a01"},
		{"ack/rejected", protocol.Ack{UpdateID: big}.Encode(), "5100ffffffffffffffffff0100"},
		{"item/event", protocol.BroadcastItem{Event: &request}.Encode(), "52010a64302d70302d746f72312a0202683102683200000000"},
		{"item/membership", protocol.BroadcastItem{Membership: &protocol.MembershipChange{
			Op: protocol.MemberAdd, Controller: "d0/ctl/5"}}.Encode(), "520001020864302f63746c2f35"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
