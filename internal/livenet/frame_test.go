package livenet

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
)

// FuzzTCPFrame feeds arbitrary frame bodies (what follows the 4-byte
// length prefix) to parseFrame. It must never panic, must refuse a body
// shorter than its clock, and a body it accepts must come back byte for
// byte from buildFrame, once the frame carries the same clock.
func FuzzTCPFrame(f *testing.F) {
	tcp, err := NewTCP(protocol.NewWireCodec(nil))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(tcp.Close)
	for _, msg := range []fabric.Message{
		protocol.MsgHeartbeat{Seq: 7},
		protocol.MsgHeartbeat{},
		protocol.MsgUpdate{
			UpdateID: openflow.MsgID{Origin: "d0-p0-tor1#42/d0", Seq: 1},
			Phase:    3,
			Mods: []openflow.FlowMod{{Op: openflow.FlowAdd, Switch: "d0-p0-tor1", Rule: openflow.Rule{
				Priority: 10,
				Match:    openflow.Match{Src: "h1", Dst: "h2"},
				Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "d0-p0-edge0"},
			}}},
		},
	} {
		frame, err := tcp.buildFrame(msg)
		if err != nil {
			f.Fatal(err)
		}
		body := frame[4:]
		binary.BigEndian.PutUint64(body[:clockBytes], 99)
		f.Add(bytes.Clone(body))
		f.Add(bytes.Clone(body[:len(body)-1]))
		f.Add(append(bytes.Clone(body), 0))
	}
	f.Add([]byte{})
	f.Add(make([]byte, clockBytes))
	f.Fuzz(func(t *testing.T, body []byte) {
		clock, msg, err := tcp.parseFrame(body)
		if err != nil {
			return
		}
		if len(body) < clockBytes {
			t.Fatalf("accepted a %d-byte body, shorter than its clock", len(body))
		}
		frame, err := tcp.buildFrame(msg)
		if err != nil {
			t.Fatalf("accepted %T does not re-encode: %v", msg, err)
		}
		binary.BigEndian.PutUint64(frame[4:4+clockBytes], clock)
		if got := binary.BigEndian.Uint32(frame[:4]); int(got) != len(frame)-4 {
			t.Fatalf("length prefix %d for a %d-byte body", got, len(frame)-4)
		}
		if !bytes.Equal(frame[4:], body) {
			t.Fatalf("accepted a second encoding of %T:\n input  %x\n encode %x", msg, body, frame[4:])
		}
	})
}

// widest is a reader that remembers the largest buffer it was asked to
// fill. ReadHello reads the id into the one buffer it allocates for it, so
// this is what ReadHello allocated.
type widest struct {
	r   io.Reader
	max int
}

func (w *widest) Read(p []byte) (int, error) {
	w.max = max(w.max, len(p))
	return w.r.Read(p)
}

// FuzzHello feeds arbitrary bytes to ReadHello as the start of a
// connection. It must never panic, never allocate past maxHelloID for the
// id, and a hello it accepts must come back byte for byte from WriteHello.
func FuzzHello(f *testing.F) {
	for _, id := range []fabric.NodeID{"x", "dom0/ctl/1", "d0-p0-edge0", fabric.NodeID(strings.Repeat("n", maxHelloID))} {
		var hello bytes.Buffer
		if _, err := WriteHello(&hello, id); err != nil {
			f.Fatal(err)
		}
		f.Add(hello.Bytes())
		f.Add(hello.Bytes()[:hello.Len()-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0}) // a frame where the hello belongs
	f.Add(append([]byte{1, 1}, make([]byte, maxHelloID+1)...))
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, in []byte) {
		r := &widest{r: bytes.NewReader(in)}
		id, err := ReadHello(r)
		if r.max > maxHelloID {
			t.Fatalf("asked for a %d-byte read, past the %d-byte bound", r.max, maxHelloID)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		n, err := WriteHello(&out, id)
		if err != nil {
			t.Fatalf("accepted id %q does not write back: %v", id, err)
		}
		if n != out.Len() || !bytes.Equal(out.Bytes(), in[:n]) {
			t.Fatalf("accepted a second spelling of %q:\n input %x\n write %x", id, in[:min(n, len(in))], out.Bytes())
		}
	})
}

// rawConn dials the node's listener as a bare socket, outside any peer
// link, so a test decides every byte the fabric reads.
func rawConn(t *testing.T, f *TCP, id fabric.NodeID) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", f.Addr(id))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestHelloNamesEveryFrame: a connection's hello names the sender of each
// frame on it, and the frames name nobody.
func TestHelloNamesEveryFrame(t *testing.T) {
	f, err := NewTCP(protocol.NewWireCodec(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var mu sync.Mutex
	var froms []fabric.NodeID
	f.Register("s1", fabric.HandlerFunc(func(from fabric.NodeID, _ fabric.Message) {
		mu.Lock()
		froms = append(froms, from)
		mu.Unlock()
	}))
	conn := rawConn(t, f, "s1")
	if _, err := WriteHello(conn, "x"); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		frame, err := f.buildFrame(protocol.MsgHeartbeat{Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(froms) == 2
	}, "two frames handled")
	mu.Lock()
	defer mu.Unlock()
	if froms[0] != "x" || froms[1] != "x" {
		t.Fatalf("frames handled as from %q, want both from the hello's x", froms)
	}
}

// TestBadHelloDropsConnection: a frame where the hello belongs, or a hello
// longer than the bound, closes the connection unread, counted as an
// unknown drop; no handler runs.
func TestBadHelloDropsConnection(t *testing.T) {
	f, err := NewTCP(protocol.NewWireCodec(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame, err := f.buildFrame(protocol.MsgHeartbeat{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	long := binary.BigEndian.AppendUint16(nil, maxHelloID+1)
	long = append(long, strings.Repeat("n", maxHelloID+1)...)
	for _, c := range []struct {
		name  string
		bytes []byte
	}{
		{"frame-before-hello", append(bytes.Clone(frame), frame...)},
		{"hello-past-bound", append(long, frame...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var handled counter
			f.Register("s1", &handled)
			before := f.Stats().DroppedUnknown
			conn := rawConn(t, f, "s1")
			if _, err := conn.Write(c.bytes); err != nil {
				t.Fatal(err)
			}
			// Closed with our bytes unread, so the close may arrive as a
			// reset rather than EOF; either is an error other than the
			// deadline's.
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, err := conn.Read(make([]byte, 1))
			if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
				t.Fatalf("read after a bad hello: %v, want the fabric to close the connection", err)
			}
			if got := f.Stats().DroppedUnknown - before; got != 1 {
				t.Fatalf("DroppedUnknown grew by %d, want 1", got)
			}
			f.InvokeWait("s1", func() {})
			if handled.n != 0 {
				t.Fatalf("a handler ran %d times", handled.n)
			}
		})
	}
}

// counter counts what it is handed; reads go through the node's mailbox.
type counter struct{ n int }

func (c *counter) HandleMessage(fabric.NodeID, fabric.Message) { c.n++ }
