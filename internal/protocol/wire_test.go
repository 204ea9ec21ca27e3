package protocol

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/big"
	mrand "math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cicero/internal/bft"
	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/dkg"
	"cicero/internal/tcrypto/merkle"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/pki"
)

// entryPoint is one way onto the wire and back: the codec's Encode and Decode
// for messages, or the Encode method and decoder of one signed payload kind.
// Every test below drives the payload kinds through the six functions the
// protocol calls, not through the plans behind them.
type entryPoint struct {
	name string
	typ  reflect.Type // the payload kind it owns; nil for the frame codec, which owns every message
	enc  func(fabric.Message) ([]byte, error)
	dec  func([]byte) (fabric.Message, error)
}

// entryPoints lists the three payload kinds — event, ack, item, in id order —
// then the frame codec.
func entryPoints(c *WireCodec) []entryPoint {
	return []entryPoint{
		{"DecodeEvent", reflect.TypeOf(Event{}),
			func(m fabric.Message) ([]byte, error) { return m.(Event).Encode(), nil },
			func(b []byte) (fabric.Message, error) { return DecodeEvent(b) }},
		{"DecodeAck", reflect.TypeOf(Ack{}),
			func(m fabric.Message) ([]byte, error) { return m.(Ack).Encode(), nil },
			func(b []byte) (fabric.Message, error) { return DecodeAck(b) }},
		{"DecodeBroadcastItem", reflect.TypeOf(BroadcastItem{}),
			func(m fabric.Message) ([]byte, error) { return m.(BroadcastItem).Encode(), nil },
			func(b []byte) (fabric.Message, error) { return DecodeBroadcastItem(b) }},
		{"WireCodec.Decode", nil, c.Encode, c.Decode},
	}
}

// ownerOf returns the entry point production code uses for msg.
func ownerOf(c *WireCodec, msg fabric.Message) entryPoint {
	eps := entryPoints(c)
	for _, ep := range eps[:3] {
		if ep.typ == reflect.TypeOf(msg) {
			return ep
		}
	}
	return eps[3]
}

// decodeAny presents data at all four entry points and returns what the one
// that accepted it decoded. Two accepting the same bytes is the failure the
// kind byte exists to exclude.
func decodeAny(t testing.TB, c *WireCodec, data []byte) (fabric.Message, error) {
	t.Helper()
	var msg fabric.Message
	var by []string
	var errs []error
	for _, ep := range entryPoints(c) {
		if m, err := ep.dec(data); err != nil {
			errs = append(errs, err)
		} else {
			msg, by = m, append(by, ep.name)
		}
	}
	if len(by) > 1 {
		t.Fatalf("%x is accepted by %v: kinds cross", data, by)
	}
	if len(by) == 0 {
		return nil, errors.Join(errs...)
	}
	return msg, nil
}

// entryByID finds the registered type behind a frame's first byte, message
// or payload kind.
func entryByID(c *WireCodec, id byte) *wireEntry {
	if e := payloads.byID[id]; e != nil {
		return e
	}
	return c.byID[id]
}

// wireSamples returns one representative value per registered wire type,
// messages first, then the signed payload kinds (a BroadcastItem of each
// arm). TestWireCoverage asserts this list covers both registries exactly,
// so a new registered type fails tests until a sample (and thus a round-trip
// check) exists for it. The key material comes from a seeded reader: every
// run encodes the same bytes, which testdata/wire.golden pins.
func wireSamples(t testing.TB) []fabric.Message {
	t.Helper()
	scheme := bls.NewScheme(pairing.Fast254())
	gk, shares, err := dkg.Run(scheme, mrand.New(mrand.NewSource(16)), 2, 4)
	if err != nil {
		t.Fatalf("dkg: %v", err)
	}
	id := openflow.MsgID{Origin: "h1", Seq: 7}
	mods := []openflow.FlowMod{
		{Op: openflow.FlowAdd, Switch: "s1", Rule: openflow.Rule{
			Priority: 10,
			Match:    openflow.Match{Src: "h1", Dst: "h2"},
			Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "s2"},
			Cookie:   9,
		}},
		{Op: openflow.FlowDelete, Switch: "s2", Rule: openflow.Rule{
			Match:  openflow.Match{Src: "h1", Dst: "h2"},
			Action: openflow.Action{Type: openflow.ActionDrop},
		}},
	}
	members := []pki.Identity{"dom0/ctl/1", "dom0/ctl/2", "dom0/ctl/3", "dom0/ctl/4"}
	digest := bft.PayloadDigest([]byte("payload"))
	batchTree := merkle.NewTree([][]byte{
		openflow.CanonicalUpdateBytes(id, 3, mods[:1]),
		openflow.CanonicalUpdateBytes(openflow.MsgID{Origin: "h2", Seq: 1}, 3, mods[1:]),
	})
	batchRoot := batchTree.Root()
	return []fabric.Message{
		MsgEvent{Env: pki.Envelope{From: "s1", Payload: []byte(`{"id":1}`), Tag: []byte{1, 2, 3}}},
		MsgAck{Env: pki.Envelope{From: "s1", Payload: []byte(`{"applied":true}`), Tag: []byte{4, 5}}},
		MsgUpdate{UpdateID: id, Mods: mods, Phase: 3, From: members[1], ShareIndex: 2, Share: []byte{6, 7, 8}},
		MsgAggUpdate{UpdateID: id, Mods: mods, Phase: 3, Signature: []byte{9, 10}},
		MsgBatchUpdate{
			UpdateID: id, Mods: mods, Phase: 3, From: members[1],
			BatchRoot: batchRoot[:], LeafIndex: 0, LeafCount: 2,
			Proof: batchTree.Proof(0), ShareIndex: 2, Share: []byte{6, 7, 8},
			ReleaseSig: []byte{13, 14, 15},
		},
		MsgConfig{Phase: 4, Quorum: 2, Members: members, Aggregator: members[0], GroupKey: gk, Signature: []byte{11}},
		MsgConfigShare{Phase: 4, ShareIndex: 3, Share: []byte{12}},
		MsgStateTransfer{
			Phase: 4, NewPhase: 5,
			Members:     members[:3],
			NewMembers:  members,
			GroupKey:    gk,
			PeerDomains: map[int][]pki.Identity{0: members[:2], 1: members[2:]},
		},
		MsgReshareDeal{Phase: 5, Deal: &dkg.ReshareDeal{Dealer: 1, DealerSet: []uint32{1, 2, 3}, Commitments: gk.Commitments}},
		MsgReshareSub{Phase: 5, Sub: dkg.SubShare{Dealer: 1, Recipient: 4, Value: big.NewInt(123456789)}},
		MsgHeartbeat{},
		MsgRecoverRequest{Phase: 4},
		MsgRecoverState{Phase: 4, View: 1, LastDelivered: 9,
			Events: [][]byte{[]byte(`{"id":"h1/7"}`), []byte(`{"id":"h2/1"}`)}},
		MsgResyncRequest{},
		MsgMeta{Env: MetaEnvelope{
			Role:   MetaRoleTimestamp,
			Signed: []byte(`{"version":3,"expires_ns":90}`),
			Sigs:   []MetaSig{{KeyID: string(members[0]), Sig: []byte{21, 22}}},
		}},
		MsgMetaSet{Envs: []MetaEnvelope{
			{Role: MetaRoleRoot, Signed: []byte(`{"version":1}`), Sigs: []MetaSig{{KeyID: MetaSigKeyGroup, Sig: []byte{23}}}},
			{Role: MetaRoleTargets, Signed: []byte(`{"version":2}`), Sigs: []MetaSig{{KeyID: string(members[1]), Sig: []byte{24}}}},
		}},
		MsgMetaRequest{},
		MsgMetaShare{Version: 2, Signed: []byte(`{"version":2}`), ShareIndex: 3, Share: []byte{25, 26}},
		MsgMetaSig{Role: MetaRoleSnapshot, Version: 2, Digest: bytes.Repeat([]byte{7}, 32),
			Signed: []byte(`{"version":2}`), KeyID: string(members[2]), Sig: []byte{27, 28}},
		MsgBFT{Phase: 4, Inner: bft.Prepare{View: 1, Seq: 2, Digest: digest}},
		bft.Request{Payload: []byte("payload")},
		bft.PrePrepare{View: 1, Seq: 2, Digest: digest, Payload: []byte("payload")},
		bft.Prepare{View: 1, Seq: 2, Digest: digest},
		bft.Commit{View: 1, Seq: 2, Digest: digest},
		bft.ViewChange{NewView: 2, Prepared: []bft.PreparedEntry{{Seq: 2, Digest: digest, Payload: []byte("payload")}}},
		bft.NewView{View: 2, PrePrepares: []bft.PrePrepare{{View: 2, Seq: 2, Digest: digest, Payload: []byte("payload")}}},
		openflow.PacketOut{ID: id, Switch: "s1", Src: "h1", Dst: "h2", Payload: "attack"},
		NodeBundle{
			Role: RoleController, ID: string(members[1]), Domain: 0, Slot: 1,
			Members:   members,
			Switches:  []string{"s1", "s2"},
			Quorum:    2,
			KeySeed:   bytes.Repeat([]byte{7}, 32),
			Directory: map[pki.Identity][]byte{"s1": {1, 2}, members[0]: {3, 4}},
			GroupKey:  gk,
			Share:     shares[1],
			BatchSize: 4, BatchDelayNS: 2e6, ViewChangeTimeoutNS: 5e8,
			GraphNodes: []WireGraphNode{{ID: "s1", Kind: 1, DC: -1, Pod: -1, Rack: -1}, {ID: "h1", Kind: 0, DC: -1, Pod: -1, Rack: -1}},
			GraphLinks: []WireGraphLink{{A: "h1", B: "s1", LatencyNS: 1e6, Gbps: 10}},
			MetaGenesis: MetaEnvelope{Role: MetaRoleRoot, Signed: []byte(`{"version":1}`),
				Sigs: []MetaSig{{KeyID: MetaSigKeyGroup, Sig: []byte{31, 32}}}},
		},
		MsgNodeHello{ID: "s1", Addr: "127.0.0.1:45001", BootEpoch: 2, PID: 4242},
		MsgNodeQuery{Nonce: 99},
		MsgNodeSnapshot{
			Nonce: 99,
			Records: []SnapshotRecord{
				{Kind: "event", Subject: "h1#7", Digest: bytes.Repeat([]byte{2}, 32)},
				{Kind: "update", Subject: "h1#7", Digest: bytes.Repeat([]byte{3}, 32)},
			},
			ChainDigest:   bytes.Repeat([]byte{4}, 32),
			ContentDigest: bytes.Repeat([]byte{6}, 32),
			Recovered:     true,
			Rules:         []openflow.Rule{mods[0].Rule},
			Applies:       []SnapshotApply{{Origin: "h1", Seq: 7, Phase: 3, Digest: bytes.Repeat([]byte{5}, 32), Valid: true}},
		},
		MsgInjectFlow{FlowID: 12, Src: "h1", Dst: "h2"},
		MsgFlowDone{FlowID: 12, Switch: "s1"},
		MsgNudge{Op: "redispatch"}, // the op the golden frame was cut with
		sampleEvent,
		Ack{UpdateID: id, Applied: true},
		BroadcastItem{Event: &sampleEvent},
		BroadcastItem{Membership: &MembershipChange{Op: MemberRemove, Controller: members[3]}},
	}
}

var sampleEvent = Event{
	ID: openflow.MsgID{Origin: "s1/td", Seq: 300}, Kind: EventFlowTeardown,
	Src: "h1", Dst: "h2", Forwarded: true, Info: "info",
}

// TestWireRoundTrip encodes every sample, decodes it, re-encodes the
// result, and requires byte-identical frames — a canonical-form round trip
// that catches lossy field handling without needing deep-equality rules
// for pointer-heavy crypto types.
func TestWireRoundTrip(t *testing.T) {
	c := NewWireCodec(nil)
	for _, sample := range wireSamples(t) {
		first := mustEncode(t, c, sample)
		decoded, err := decodeAny(t, c, first)
		if err != nil {
			t.Fatalf("decode %T: %v", sample, err)
		}
		if reflect.TypeOf(decoded) != reflect.TypeOf(sample) {
			t.Fatalf("decode %T: got %T", sample, decoded)
		}
		second := mustEncode(t, c, decoded)
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not stable for %T:\n first: %x\nsecond: %x", sample, first, second)
		}
	}
}

// TestWireValuesSurvive checks the round trip field by field where the
// types allow it (no curve points inside): what Decode returns is the
// value that was sent, except that empty slices and maps come back nil.
func TestWireValuesSurvive(t *testing.T) {
	c := NewWireCodec(nil)
	for _, sample := range wireSamples(t) {
		switch sample.(type) {
		case MsgConfig, MsgStateTransfer, MsgReshareDeal, NodeBundle:
			continue // hold points: TestWireGroupKeyRoundTrip covers them
		}
		decoded, err := decodeAny(t, c, mustEncode(t, c, sample))
		if err != nil {
			t.Fatalf("decode %T: %v", sample, err)
		}
		if !reflect.DeepEqual(decoded, sample) {
			t.Errorf("%T changed in flight:\n sent %+v\n got  %+v", sample, sample, decoded)
		}
	}
}

// TestWireGroupKeyRoundTrip checks the crypto-bearing path semantically: a
// decoded group key must verify exactly like the original.
func TestWireGroupKeyRoundTrip(t *testing.T) {
	c := NewWireCodec(nil)
	scheme := bls.NewScheme(pairing.Fast254())
	gk, shares, err := dkg.Run(scheme, mrand.New(mrand.NewSource(2)), 2, 4)
	if err != nil {
		t.Fatalf("dkg: %v", err)
	}
	frame, err := c.Encode(MsgConfig{Phase: 1, Quorum: 2, GroupKey: gk})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := c.Decode(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, ok := decoded.(MsgConfig).GroupKey.(*bls.GroupKey)
	if !ok || got == nil {
		t.Fatalf("decoded group key: %T", decoded.(MsgConfig).GroupKey)
	}
	msg := []byte("update bytes")
	share := scheme.SignShare(shares[0], msg)
	if !scheme.VerifyShare(got, msg, share) {
		t.Fatalf("decoded group key rejects a valid share")
	}
	// No key stays no key: a nil interface, not a typed nil pointer that
	// passes a != nil check and is dereferenced later.
	frame, err = c.Encode(MsgConfig{Phase: 1, Quorum: 2})
	if err != nil {
		t.Fatalf("encode without key: %v", err)
	}
	if decoded, err = c.Decode(frame); err != nil || decoded.(MsgConfig).GroupKey != nil {
		t.Fatalf("config without a key decoded to %#v, %v", decoded, err)
	}
}

// TestWireCoverage fails when the sample list and the registry drift
// apart, in either direction.
func TestWireCoverage(t *testing.T) {
	c := NewWireCodec(nil)
	covered := make(map[string]bool)
	for _, sample := range wireSamples(t) {
		covered[sampleName(t, c, sample)] = true
		// MsgBFT's sample also exercises its inner frame type, but the
		// inner types have their own top-level samples, so no extra
		// bookkeeping is needed.
	}
	registered := make(map[string]bool)
	for _, codec := range []*WireCodec{c, payloads} {
		for _, e := range codec.byType {
			registered[e.name] = true
		}
	}
	// Name the drift explicitly in both directions: a registered type with
	// no round-trip sample is a codec test silently skipped, and a sample
	// for an unregistered name is a stale test.
	var missing, extra []string
	for name := range registered {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	for name := range covered {
		if !registered[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		t.Errorf("registered wire types with no round-trip sample (add them to wireSamples): %v", missing)
	}
	if len(extra) > 0 {
		t.Errorf("samples for unregistered wire types (stale entries in wireSamples): %v", extra)
	}
}

// mustEncode encodes msg the way production code does (see entryPoint).
func mustEncode(t testing.TB, c *WireCodec, msg fabric.Message) []byte {
	t.Helper()
	frame, err := ownerOf(c, msg).enc(msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	return frame
}

// sampleName encodes msg and reads its registered name back from the
// frame's type id.
func sampleName(t testing.TB, c *WireCodec, msg fabric.Message) string {
	t.Helper()
	frame := mustEncode(t, c, msg)
	e := entryByID(c, frame[0])
	if e == nil {
		t.Fatalf("frame of %T carries unregistered id %d", msg, frame[0])
	}
	return e.name
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current codec")

const goldenPath = "testdata/wire.golden"

// readGolden returns the pinned frames in file order, name then bytes.
func readGolden(t testing.TB) (names []string, frames [][]byte) {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("golden frames: %v (create them with go test -run TestWireGolden -update)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexFrame, ok := strings.Cut(line, " ")
		frame, err := hex.DecodeString(hexFrame)
		if !ok || err != nil {
			t.Fatalf("golden frames: bad line %q", line)
		}
		names = append(names, name)
		frames = append(frames, frame)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("golden frames: %v", err)
	}
	return names, frames
}

// TestWireGolden pins the wire format: every sample must encode to the
// bytes in testdata/wire.golden. A renumbered type id, a reordered,
// added or retyped field, or a changed scalar encoding fails here — the
// file is regenerated (-update) only by a change that means to break
// compatibility with deployed peers and says so.
func TestWireGolden(t *testing.T) {
	c := NewWireCodec(nil)
	samples := wireSamples(t)
	if *updateGolden {
		var out strings.Builder
		out.WriteString("# One line per wire sample: registered name, then the frame in hex.\n")
		out.WriteString("# Pins type ids, field order and scalar encodings; see TestWireGolden.\n")
		for _, sample := range samples {
			frame := mustEncode(t, c, sample)
			fmt.Fprintf(&out, "%s %x\n", entryByID(c, frame[0]).name, frame)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names, frames := readGolden(t)
	if len(frames) != len(samples) {
		t.Fatalf("golden file holds %d frames, wireSamples %d", len(frames), len(samples))
	}
	for i, sample := range samples {
		frame := mustEncode(t, c, sample)
		if name := sampleName(t, c, sample); name != names[i] {
			t.Errorf("sample %d is %s, golden line is %s", i, name, names[i])
		}
		if !bytes.Equal(frame, frames[i]) {
			t.Errorf("%s does not encode to its golden bytes:\n got  %x\n want %x", names[i], frame, frames[i])
		}
		if _, err := decodeAny(t, c, frames[i]); err != nil {
			t.Errorf("golden %s no longer decodes: %v", names[i], err)
		}
	}
}

// retiredWireIDs named the bundle, barrier, packet-in and role messages,
// which nothing sent. No type may be registered under them again: a peer
// built before they were retired would take the new message for the old one.
var retiredWireIDs = []byte{48, 49, 50, 51, 52, 53, 55}

// frameOf builds a frame from a type id and raw body bytes.
func frameOf(id byte, body ...byte) []byte { return append([]byte{id}, body...) }

// TestWireDecodeErrors checks the codec rejects (not panics on) the
// malformed-input classes a live transport can deliver, each for its own
// reason.
func TestWireDecodeErrors(t *testing.T) {
	c := NewWireCodec(nil)
	request, err := c.Encode(MsgRecoverRequest{Phase: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A scalar equal to the group order r, minimally encoded.
	r := pairing.Fast254().R.Bytes()
	for _, tc := range []struct {
		name string
		data []byte
		want error // nil: any error
	}{
		{"empty", nil, errWireEmpty},
		{"unknown type id", []byte{0xff, 0, 0}, nil},
		{"type id zero", []byte{0}, nil},
		{"id only", []byte{9}, errWireShort},
		{"trailing byte", append(bytes.Clone(request), 0), errWireTrailing},
		// node-nudge: Op, declared five bytes long.
		{"string past the end", frameOf(70, 5, 'c', '1'), errWireShort},
		{"non-minimal varint", frameOf(9, 0x81, 0x00), errWireVarint},
		{"varint over 64 bits", frameOf(9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), errWireVarint},
		// node-hello: ID, Addr, BootEpoch = 2^33-1 in a uint32.
		{"uint32 out of range", frameOf(65, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x1f, 0), errWireRange},
		// update: every field zero, Resend = 2.
		{"bool of 2", frameOf(3, 0, 0, 0, 0, 0, 0, 0, 2), errWireBool},
		// reshare-deal: phase, Deal presence = 2.
		{"presence of 2", frameOf(13, 1, 2), errWireBool},
		{"bft in bft", frameOf(15, 1, 15, 1, 34), errWireInner},
		{"bft holding a non-bft", append(frameOf(15, 1), request...), errWireInner},
		{"bft with unknown inner", frameOf(15, 1, 0xfe), errWireInner},
		{"bft with no inner", frameOf(15, 1), errWireShort},
		// reshare-sub: phase, dealer, recipient, then Value.
		{"sub-share absent", frameOf(14, 5, 1, 4, 0), errWireRequired},
		{"sub-share leading zero", frameOf(14, 5, 1, 4, 1, 2, 0, 7), errWireScalar},
		{"sub-share of r", append(frameOf(14, 5, 1, 4, 1, byte(len(r))), r...), errWireScalar},
		// state-transfer: PeerDomains with keys 1, 0 and 1, 1 (zig-zag 2, 0).
		{"unsorted map keys", frameOf(12, 4, 5, 0, 0, 0, 2, 2, 0, 0, 0), errWireMapOrder},
		{"duplicate map keys", frameOf(12, 4, 5, 0, 0, 0, 2, 2, 0, 2, 0), errWireMapOrder},
	} {
		msg, err := c.Decode(tc.data)
		if err == nil {
			t.Errorf("%s: decode accepted malformed input as %#v", tc.name, msg)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: rejected with %q, want %q", tc.name, err, tc.want)
		}
	}
	// The same classes at the three payload decoders, each refused for its own
	// reason; ids 80, 81, 82 are event, ack, item.
	eps := entryPoints(c)
	decEvent, decAck, decItem := eps[0].dec, eps[1].dec, eps[2].dec
	event, ack := sampleEvent.Encode(), Ack{Applied: true}.Encode()
	for _, tc := range []struct {
		name string
		dec  func([]byte) (fabric.Message, error)
		data []byte
		want error
	}{
		{"empty event", decEvent, nil, errWireEmpty},
		{"empty ack", decAck, nil, errWireEmpty},
		{"empty item", decItem, nil, errWireEmpty},
		{"event kind only", decEvent, []byte{80}, errWireShort},
		{"event trailing byte", decEvent, append(bytes.Clone(event), 0), errWireTrailing},
		{"ack trailing byte", decAck, append(bytes.Clone(ack), 0), errWireTrailing},
		{"event origin past the end", decEvent, frameOf(80, 5, 's', '1'), errWireShort},
		{"event non-minimal seq", decEvent, frameOf(80, 0, 0x81, 0x00, 2, 0, 0, 0, 0), errWireVarint},
		{"event forwarded of 2", decEvent, frameOf(80, 0, 0, 2, 0, 0, 2, 0), errWireBool},
		{"ack applied of 2", decAck, frameOf(81, 0, 0, 2), errWireBool},
		{"item presence of 2", decItem, frameOf(82, 2, 0), errWireBool},
		{"item ends inside its event", decItem, frameOf(82, 1, 0, 0), errWireShort},
		{"what the event was before it had a kind byte", decEvent, []byte(`{"id":{"Origin":"s1","Seq":1},"kind":1}`), errWireKind},
		{"the zero event any JSON object used to decode to", decEvent, []byte(`{}`), errWireKind},
	} {
		if msg, err := tc.dec(tc.data); err == nil {
			t.Errorf("%s: decode accepted malformed input as %#v", tc.name, msg)
		} else if !errors.Is(err, tc.want) {
			t.Errorf("%s: rejected with %q, want %q", tc.name, err, tc.want)
		}
	}
	for _, id := range retiredWireIDs {
		if e := c.byID[id]; e != nil {
			t.Errorf("retired type id %d is registered again, as %s", id, e.name)
		}
		// What bundle-open, bundle-commit and both barriers looked like.
		if msg, err := c.Decode(frameOf(id, 2, 'h', '1', 7)); err == nil {
			t.Errorf("retired type id %d decodes to %#v", id, msg)
		}
	}
	for _, tc := range []struct {
		name string
		msg  fabric.Message
		want error
	}{
		{"unregistered type", struct{ X int }{1}, nil},
		{"nil message", nil, errWireNilEncode},
		{"bft in bft", MsgBFT{Phase: 1, Inner: MsgBFT{Phase: 1, Inner: bft.Prepare{}}}, errWireInner},
		{"bft holding a non-bft", MsgBFT{Phase: 1, Inner: MsgHeartbeat{}}, errWireInner},
		{"bft with no inner", MsgBFT{Phase: 1}, errWireInner},
		{"sub-share absent", MsgReshareSub{Phase: 5}, errWireRequired},
		{"negative scalar", MsgReshareSub{Phase: 5, Sub: dkg.SubShare{Value: big.NewInt(-1)}}, errWireScalar},
		{"group key of a string", MsgConfig{GroupKey: "not a key"}, errWireGroupKey},
	} {
		frame, err := c.Encode(tc.msg)
		if err == nil {
			t.Errorf("%s: encode accepted it as %x", tc.name, frame)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: refused with %q, want %q", tc.name, err, tc.want)
		}
	}
}

// TestWireTruncation cuts every sample at every length: a proper prefix of
// a frame is never a frame, and never a panic.
func TestWireTruncation(t *testing.T) {
	c := NewWireCodec(nil)
	for _, sample := range wireSamples(t) {
		frame := mustEncode(t, c, sample)
		for n := 0; n < len(frame); n++ {
			if _, err := decodeAny(t, c, frame[:n]); err == nil {
				t.Fatalf("%T: the first %d of %d bytes decoded", sample, n, len(frame))
			}
		}
	}
}

// TestWireLengthBombs sends frames of ten or eleven bytes that declare a
// 2³⁰-element slice, a 2³⁰-byte string and a 2³⁰-entry map. Each must be
// refused from the declared length alone, before anything of that size
// is allocated.
func TestWireLengthBombs(t *testing.T) {
	c := NewWireCodec(nil)
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x04} // uvarint 2^30
	pad := func(b []byte) []byte {
		for len(b) < 10 {
			b = append(b, 0)
		}
		return b
	}
	bombs := map[string][]byte{
		"slice":  pad(append(frameOf(3, 0, 0), huge...)),           // update: empty origin, seq 0, then Mods
		"string": pad(append(frameOf(3), huge...)),                 // update: UpdateID.Origin
		"bytes":  pad(append(frameOf(1, 0), huge...)),              // event: empty From, then Payload
		"map":    pad(append(frameOf(12, 0, 0, 0, 0, 0), huge...)), // state-transfer: PeerDomains
		"event":  pad(append(frameOf(80), huge...)),                // payload-event: ID.Origin
		"ack":    pad(append(frameOf(81), huge...)),                // payload-ack: UpdateID.Origin
		"item":   pad(append(frameOf(82, 1), huge...)),             // payload-item: Event.ID.Origin
	}
	for name, bomb := range bombs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			if _, err := decodeAny(t, c, bomb); err == nil {
				t.Fatalf("%s: a 10-byte frame declaring 2^30 elements decoded", name)
			}
		}
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Errorf("%s: 100 refusals allocated %d bytes", name, grown)
		}
	}
}

// curvePointOutsideG1 returns the encoding of a point that satisfies the
// curve equation y² = x³ + x but does not have order r (the cofactor is
// astronomically large, so the first curve point found is such a point).
func curvePointOutsideG1(t *testing.T, params *pairing.Params) []byte {
	t.Helper()
	p := params.P
	root := new(big.Int).Rsh(new(big.Int).Add(p, big.NewInt(1)), 2) // p ≡ 3 (mod 4)
	for x := big.NewInt(2); ; x.Add(x, big.NewInt(1)) {
		y2 := new(big.Int).Exp(x, big.NewInt(3), p)
		y2.Add(y2, x).Mod(y2, p)
		y := new(big.Int).Exp(y2, root, p)
		if new(big.Int).Exp(y, big.NewInt(2), p).Cmp(y2) != 0 {
			continue
		}
		w := (params.PointSize() - 1) / 2
		enc := make([]byte, params.PointSize())
		enc[0] = 4
		x.FillBytes(enc[1 : 1+w])
		y.FillBytes(enc[1+w:])
		return enc
	}
}

// TestWireRejectsBadPoints swaps the first Feldman commitment inside the
// three frames that carry points for one that is off the curve and for
// one on the curve but outside the order-r subgroup.
func TestWireRejectsBadPoints(t *testing.T) {
	params := pairing.Fast254()
	c := NewWireCodec(params)
	outside := curvePointOutsideG1(t, params)
	tested := 0
	for _, sample := range wireSamples(t) {
		var gk *bls.GroupKey
		switch m := sample.(type) {
		case MsgConfig:
			gk = m.GroupKey.(*bls.GroupKey)
		case NodeBundle:
			gk = m.GroupKey
		case MsgReshareDeal:
			gk = &bls.GroupKey{Commitments: m.Deal.Commitments}
		default:
			continue
		}
		tested++
		frame, err := c.Encode(sample)
		if err != nil {
			t.Fatalf("encode %T: %v", sample, err)
		}
		good := params.PointBytes(gk.Commitments[0])
		at := bytes.LastIndex(frame, good)
		if at < 0 {
			t.Fatalf("%T: frame does not contain its first commitment", sample)
		}
		offCurve := bytes.Clone(good)
		offCurve[len(offCurve)-1] ^= 1
		for name, bad := range map[string][]byte{"off-curve": offCurve, "out-of-subgroup": outside} {
			mauled := bytes.Clone(frame)
			copy(mauled[at:], bad)
			if _, err := c.Decode(mauled); err == nil {
				t.Errorf("%T: decode accepted an %s commitment", sample, name)
			}
		}
	}
	if tested != 3 {
		t.Fatalf("mauled %d point-bearing samples, want config, reshare-deal and node-bundle", tested)
	}
}

// TestWireKindsDoNotCross presents every sample at every entry point: the
// one that owns its type accepts it, and the other three refuse it — each
// payload decoder the other two payload kinds and every message, the frame
// codec every payload kind.
func TestWireKindsDoNotCross(t *testing.T) {
	c := NewWireCodec(nil)
	for id, e := range payloads.byID {
		if e != nil && c.byID[id] != nil {
			t.Errorf("id %d is payload kind %s and message %s", id, e.name, c.byID[id].name)
		}
	}
	for _, sample := range wireSamples(t) {
		owner := ownerOf(c, sample)
		frame := mustEncode(t, c, sample)
		for _, ep := range entryPoints(c) {
			msg, err := ep.dec(frame)
			switch {
			case ep.name == owner.name && err != nil:
				t.Errorf("%s refuses a %T: %v", ep.name, sample, err)
			case ep.name != owner.name && err == nil:
				t.Errorf("%s accepts the bytes of a %T as %#v", ep.name, sample, msg)
			case ep.name != owner.name && ep.typ != nil && !errors.Is(err, errWireKind):
				t.Errorf("%s refuses a %T with %q, want %q", ep.name, sample, err, errWireKind)
			}
		}
	}
}

// FuzzWireDecode asserts no entry point — the frame-level Decode and the
// three payload decoders — ever panics: any input must yield either a
// registered message, a payload, or an error, from at most one of them. An
// accepted input must also be the one encoding of what it decodes to:
// Encode(Decode(x)) == x.
func FuzzWireDecode(f *testing.F) {
	c := NewWireCodec(nil)
	_, frames := readGolden(f)
	for _, id := range retiredWireIDs {
		frames = append(frames, frameOf(id, 2, 'h', '1', 7))
	}
	for _, frame := range frames {
		f.Add(frame)
		// A corrupted variant of every seed: flip a byte in the middle.
		bad := bytes.Clone(frame)
		bad[len(bad)/2] ^= 0xff
		f.Add(bad)
	}
	f.Add(frameOf(15, 1, 8)) // a heartbeat inside a bft frame
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data) // the fuzzer's bytes are not ours to overwrite
		msg, err := decodeAny(t, c, in)
		if err != nil {
			return
		}
		again, err := ownerOf(c, msg).enc(msg)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted a second encoding of %T:\n input  %x\n encode %x", msg, data, again)
		}
		if again := clobbered(t, c, msg, in); !bytes.Equal(again, data) {
			t.Fatalf("%T keeps bytes of its input: once they read 0xff it encodes to\n %x\nnot\n %x", msg, again, data)
		}
	})
}

// TestDecodeKeepsNothingOfItsInput: every entry point copies out what it
// keeps, so a sample decoded from a buffer that is then overwritten with
// 0xff still encodes to the bytes it was decoded from. The tcp backend's
// reader rests on this: it decodes every frame of a connection out of one
// buffer it reuses. FuzzWireDecode checks the same of every input it
// accepts.
func TestDecodeKeepsNothingOfItsInput(t *testing.T) {
	c := NewWireCodec(nil)
	for _, sample := range wireSamples(t) {
		frame := mustEncode(t, c, sample)
		in := bytes.Clone(frame)
		msg, err := decodeAny(t, c, in)
		if err != nil {
			t.Fatalf("decode %T: %v", sample, err)
		}
		if again := clobbered(t, c, msg, in); !bytes.Equal(again, frame) {
			t.Errorf("%T keeps bytes of its input: once they read 0xff it encodes to\n %x\nnot\n %x", sample, again, frame)
		}
	}
}

// clobbered overwrites in, the buffer msg was decoded from, with 0xff and
// encodes msg again. A decoder that kept a slice of its input shows in the
// result.
func clobbered(t testing.TB, c *WireCodec, msg fabric.Message, in []byte) []byte {
	t.Helper()
	for i := range in {
		in[i] = 0xff
	}
	again, err := ownerOf(c, msg).enc(msg)
	if err != nil {
		t.Fatalf("%T does not encode once its input is overwritten: %v", msg, err)
	}
	return again
}

// BenchmarkWireCodec times Encode and Decode on every sample kind and
// reports the frame size beside them.
func BenchmarkWireCodec(b *testing.B) {
	c := NewWireCodec(nil)
	for _, sample := range wireSamples(b) {
		sample := sample
		ep := ownerOf(c, sample)
		frame := mustEncode(b, c, sample)
		name := sampleName(b, c, sample)
		b.Run(name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ep.enc(sample); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(frame)), "B/frame")
		})
		b.Run(name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ep.dec(frame); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(frame)), "B/frame")
		})
	}
}
