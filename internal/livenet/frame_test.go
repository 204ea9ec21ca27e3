package livenet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
)

// FuzzTCPFrame feeds arbitrary frame bodies (what follows the 4-byte
// length prefix) to parseFrame. It must never panic, must refuse a sender
// length that runs past the body, and a body it accepts must come back
// byte for byte from buildFrame, once the frame carries the same clock.
func FuzzTCPFrame(f *testing.F) {
	tcp, err := NewTCP(protocol.NewWireCodec(nil))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(tcp.Close)
	for _, seed := range []struct {
		from fabric.NodeID
		msg  fabric.Message
	}{
		{"ctl/1", protocol.MsgHeartbeat{Seq: 7}},
		{"", protocol.MsgHeartbeat{}},
		{"d0-p0-tor1", protocol.MsgUpdate{
			UpdateID: openflow.MsgID{Origin: "d0-p0-tor1#42/d0", Seq: 1},
			Phase:    3,
			Mods: []openflow.FlowMod{{Op: openflow.FlowAdd, Switch: "d0-p0-tor1", Rule: openflow.Rule{
				Priority: 10,
				Match:    openflow.Match{Src: "h1", Dst: "h2"},
				Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "d0-p0-edge0"},
			}}},
		}},
	} {
		frame, err := tcp.buildFrame(seed.from, seed.msg)
		if err != nil {
			f.Fatal(err)
		}
		body := frame[4:]
		binary.BigEndian.PutUint64(body[:8], 99)
		f.Add(bytes.Clone(body))
		f.Add(bytes.Clone(body[:len(body)-1]))
		long := bytes.Clone(body)
		binary.BigEndian.PutUint16(long[8:10], uint16(len(long)))
		f.Add(long)
	}
	f.Add([]byte{})
	f.Add(make([]byte, minFrameLen))
	f.Fuzz(func(t *testing.T, body []byte) {
		clock, from, msg, err := tcp.parseFrame(body)
		if err != nil {
			return
		}
		if len(body) < minFrameLen || int(binary.BigEndian.Uint16(body[8:10])) > len(body)-minFrameLen {
			t.Fatalf("accepted a body whose header runs past its %d bytes", len(body))
		}
		frame, err := tcp.buildFrame(from, msg)
		if err != nil {
			t.Fatalf("accepted %T from %q does not re-encode: %v", msg, from, err)
		}
		binary.BigEndian.PutUint64(frame[4:12], clock)
		if got := binary.BigEndian.Uint32(frame[:4]); int(got) != len(frame)-4 {
			t.Fatalf("length prefix %d for a %d-byte body", got, len(frame)-4)
		}
		if !bytes.Equal(frame[4:], body) {
			t.Fatalf("accepted a second encoding of %T from %q:\n input  %x\n encode %x", msg, from, body, frame[4:])
		}
	})
}
