package protocol

import (
	"strings"
	"testing"
	"time"

	"cicero/internal/openflow"
	"cicero/internal/tcrypto/pki"
)

func TestEventEncodeDecodeRoundTrip(t *testing.T) {
	ev := Event{
		ID:        openflow.MsgID{Origin: "tor-3", Seq: 42},
		Kind:      EventFlowRequest,
		Src:       "h1",
		Dst:       "h2",
		Cookie:    7,
		Forwarded: true,
		Info:      "extra",
	}
	got, err := DecodeEvent(ev.Encode())
	if err != nil {
		t.Fatalf("DecodeEvent: %v", err)
	}
	if got != ev {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, ev)
	}
}

func TestDecodeEventRejectsGarbage(t *testing.T) {
	if _, err := DecodeEvent([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestAckEncodeDecodeRoundTrip(t *testing.T) {
	ack := Ack{UpdateID: openflow.MsgID{Origin: "e1", Seq: 3}, Applied: true}
	got, err := DecodeAck(ack.Encode())
	if err != nil {
		t.Fatalf("DecodeAck: %v", err)
	}
	if got != ack {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, ack)
	}
	if _, err := DecodeAck([]byte("{")); err == nil {
		t.Fatal("garbage ack accepted")
	}
}

func TestBroadcastItemRoundTrip(t *testing.T) {
	ev := Event{ID: openflow.MsgID{Origin: "x", Seq: 1}, Kind: EventFlowRequest, Src: "a", Dst: "b"}
	item := BroadcastItem{Event: &ev}
	got, err := DecodeBroadcastItem(item.Encode())
	if err != nil {
		t.Fatalf("DecodeBroadcastItem: %v", err)
	}
	if got.Event == nil || got.Event.Src != "a" || got.Membership != nil {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	mc := BroadcastItem{Membership: &MembershipChange{Op: MemberAdd, Controller: "ctl-5"}}
	got, err = DecodeBroadcastItem(mc.Encode())
	if err != nil {
		t.Fatalf("DecodeBroadcastItem: %v", err)
	}
	if got.Membership == nil || got.Membership.Op != MemberAdd || got.Membership.Controller != "ctl-5" {
		t.Fatalf("membership round trip mismatch: %+v", got)
	}
}

func TestConfigBytesBinding(t *testing.T) {
	base := ConfigBytes(1, 2, []pki.Identity{"a", "b"}, "agg")
	if string(base) != string(ConfigBytes(1, 2, []pki.Identity{"a", "b"}, "agg")) {
		t.Fatal("ConfigBytes not deterministic")
	}
	variants := [][]byte{
		ConfigBytes(2, 2, []pki.Identity{"a", "b"}, "agg"),   // phase
		ConfigBytes(1, 3, []pki.Identity{"a", "b"}, "agg"),   // quorum
		ConfigBytes(1, 2, []pki.Identity{"a"}, "agg"),        // members
		ConfigBytes(1, 2, []pki.Identity{"a", "b"}, "other"), // aggregator
	}
	for i, v := range variants {
		if string(v) == string(base) {
			t.Errorf("variant %d not bound into signed config bytes", i)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	for _, k := range []EventKind{EventFlowRequest, EventFlowTeardown, EventLinkDown, EventPolicyChange, EventMembershipInfo} {
		if strings.Contains(k.String(), "kind(") {
			t.Errorf("kind %d lacks a name", int(k))
		}
	}
	if !strings.Contains(EventKind(99).String(), "99") {
		t.Error("unknown kind should render its number")
	}
}

func TestMembershipOpString(t *testing.T) {
	if MemberAdd.String() != "add" || MemberRemove.String() != "remove" {
		t.Fatal("bad op names")
	}
}

func TestCalibratedCostModelSane(t *testing.T) {
	c := Calibrated()
	if c.BLSVerifyAggregate < c.Ed25519Verify {
		t.Error("pairing verification should dominate Ed25519")
	}
	if c.SwitchApply <= 0 || c.RouteCompute <= 0 || c.BFTCompute <= 0 {
		t.Error("calibrated costs must be positive")
	}
	z := Zero()
	if z.SwitchApply != 0 || z.BLSSignShare != 0 {
		t.Error("Zero() must charge nothing")
	}
	// The single-flow setup relation of §6.2 depends on these bounds.
	if c.BLSSignShare > time.Millisecond || c.BLSVerifyAggregate > 2*time.Millisecond {
		t.Error("calibration drifted far from the paper's crypto scale")
	}
}
