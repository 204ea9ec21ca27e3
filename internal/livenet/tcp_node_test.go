package livenet

import (
	"sync/atomic"
	"testing"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/protocol"
)

// TestTCPNodeRemoteSend wires three TCP fabrics in one test process the
// way the distrib supervisor wires one per OS process: each fabric hosts
// one node and reaches the others only through its static Remotes map.
// A frame injected at C relays through B's handler to A, exercising the
// remote-address dial fallback on both hops, and each fabric's Lamport
// clock must observe the upstream clock so the merged trace order is
// causal: A's clock ends strictly ahead of the value C stamped on the
// original send.
func TestTCPNodeRemoteSend(t *testing.T) {
	codec := protocol.NewWireCodec(nil)
	newNode := func(remotes map[fabric.NodeID]string) (*TCP, *LamportClock) {
		clock := &LamportClock{}
		f, err := NewTCPNode(TCPOptions{Codec: codec, Remotes: remotes, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f, clock
	}

	fa, clockA := newNode(nil)
	var gotA atomic.Uint64
	fa.Register("a", fabric.HandlerFunc(func(from fabric.NodeID, msg fabric.Message) {
		if from != "b" {
			t.Errorf("a received from %s, want b", from)
		}
		gotA.Add(1)
	}))

	fb, _ := newNode(map[fabric.NodeID]string{"a": fa.Addr("a")})
	fb.Register("b", fabric.HandlerFunc(func(from fabric.NodeID, msg fabric.Message) {
		fb.Send("b", "a", msg, 0) // relay: "a" lives in another fabric
	}))

	fc, clockC := newNode(map[fabric.NodeID]string{"b": fb.Addr("b")})
	fc.Register("c", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {}))

	// Sends to nodes neither hosted locally nor in the remotes map must
	// fail fast, not silently vanish.
	if err := fc.SendErr("c", "a", protocol.MsgRecoverRequest{Phase: 99}, 0); err != ErrUnknownNode {
		t.Fatalf("send to unmapped remote: err=%v, want ErrUnknownNode", err)
	}

	fc.Send("c", "b", protocol.MsgRecoverRequest{Phase: 1}, 0)
	atSend := clockC.v.Load()
	waitFor(t, 5*time.Second, func() bool { return gotA.Load() == 1 },
		"relayed delivery across three fabrics")

	// Lamport causality across process boundaries: A's clock observed a
	// chain of ticks that started at C, so it must have moved past the
	// value C held when the frame left.
	waitFor(t, 5*time.Second, func() bool { return clockA.v.Load() > atSend },
		"a's lamport clock to pass c's send timestamp")
	if atSend == 0 {
		t.Fatal("c's clock never ticked on send")
	}
}
