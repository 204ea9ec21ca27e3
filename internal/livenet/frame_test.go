package livenet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cicero/internal/bft"
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
		protocol.MsgRecoverRequest{Phase: 7},
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
		frame, err := f.buildFrame(protocol.MsgRecoverRequest{Phase: seq})
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
	frame, err := f.buildFrame(protocol.MsgRecoverRequest{Phase: 1})
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

// inbox records what a node is handed, in order.
type inbox struct {
	mu    sync.Mutex
	froms []fabric.NodeID
	msgs  []fabric.Message
}

func (in *inbox) HandleMessage(from fabric.NodeID, msg fabric.Message) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.froms = append(in.froms, from)
	in.msgs = append(in.msgs, msg)
}

// await waits until n messages have arrived, then returns them with their
// senders.
func (in *inbox) await(t *testing.T, n int) ([]fabric.NodeID, []fabric.Message) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool {
		in.mu.Lock()
		defer in.mu.Unlock()
		return len(in.msgs) >= n
	}, fmt.Sprintf("%d messages", n))
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.froms, in.msgs
}

// stream returns the bytes a link from `from` writes for msgs: the hello,
// then one frame per message.
func stream(t *testing.T, f *TCP, from fabric.NodeID, msgs ...fabric.Message) []byte {
	t.Helper()
	out, err := buildHello(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range msgs {
		frame, err := f.buildFrame(msg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame...)
	}
	return out
}

// numbered returns recover requests numbered 1…n.
func numbered(n int) []fabric.Message {
	msgs := make([]fabric.Message, n)
	for i := range msgs {
		msgs[i] = protocol.MsgRecoverRequest{Phase: uint64(i + 1)}
	}
	return msgs
}

// TestReaderFindsFramesWhereverWritesEnd: the reader takes a connection's
// hello and frames out of one buffer, whether they come in one write or a
// few bytes at a time. Each frame is handed over once, in order, from the
// hello's id.
func TestReaderFindsFramesWhereverWritesEnd(t *testing.T) {
	f, err := NewTCP(protocol.NewWireCodec(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 100
	wire := stream(t, f, "x", numbered(n)...)
	for _, c := range []struct {
		name  string
		chunk func(i int) int // the size of write i
	}{
		{"one-write", func(int) int { return len(wire) }},
		{"1-to-7-bytes-per-write", func(i int) int { return 1 + i%7 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var in inbox
			f.Register("s1", &in)
			conn := rawConn(t, f, "s1")
			for i, at := 0, 0; at < len(wire); i++ {
				end := min(at+c.chunk(i), len(wire))
				if _, err := conn.Write(wire[at:end]); err != nil {
					t.Fatal(err)
				}
				at = end
			}
			froms, msgs := in.await(t, n)
			f.InvokeWait("s1", func() {}) // anything past n would be queued by now
			if len(msgs) != n {
				t.Fatalf("%d messages handled, want %d", len(msgs), n)
			}
			for i, msg := range msgs {
				if rr, ok := msg.(protocol.MsgRecoverRequest); !ok || rr.Phase != uint64(i+1) || froms[i] != "x" {
					t.Fatalf("message %d is %#v from %q, want recover request %d from x", i, msg, froms[i], i+1)
				}
			}
		})
	}
}

// TestLongFrameBetweenShortOnes: a frame past the buffer a connection
// keeps is read into one of its own; it and the frames around it arrive
// intact.
func TestLongFrameBetweenShortOnes(t *testing.T) {
	f, err := NewTCP(protocol.NewWireCodec(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	long := make([]byte, keptFrameBytes+1000)
	for i := range long {
		long[i] = byte(i % 251)
	}
	sent := []fabric.Message{
		protocol.MsgRecoverRequest{Phase: 1},
		bft.Request{Payload: long},
		protocol.MsgRecoverRequest{Phase: 2},
		bft.Request{Payload: []byte("short")},
		protocol.MsgRecoverRequest{Phase: 3},
	}
	var in inbox
	f.Register("s1", &in)
	if _, err := rawConn(t, f, "s1").Write(stream(t, f, "x", sent...)); err != nil {
		t.Fatal(err)
	}
	_, got := in.await(t, len(sent))
	if !reflect.DeepEqual(got, sent) {
		t.Fatalf("handled %d messages, not the %d sent, or not intact", len(got), len(sent))
	}
}

// TestBurstThroughTheFabric: one sender queues 2,000 messages to one
// receiver without yielding, so its link writes them in bursts. All arrive
// once and in order, and Stats.Bytes counts the hello once and every frame
// once.
func TestBurstThroughTheFabric(t *testing.T) {
	f, err := NewTCP(protocol.NewWireCodec(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var in inbox
	f.Register("s1", &in)
	const n = 2000
	msgs := numbered(n)
	want := uint64(len(stream(t, f, "c1", msgs...)))
	for _, msg := range msgs {
		f.Send("c1", "s1", msg, 0)
	}
	froms, got := in.await(t, n)
	for i, msg := range got {
		if msg != msgs[i] || froms[i] != "c1" {
			t.Fatalf("message %d is %#v from %q, want %#v from c1", i, msg, froms[i], msgs[i])
		}
	}
	waitFor(t, 5*time.Second, func() bool { return f.Stats().Bytes >= want }, "the writer's byte count")
	f.InvokeWait("s1", func() {})
	if st := f.Stats(); st.Bytes != want || st.Delivered != n || st.Dropped != 0 {
		t.Fatalf("stats %+v, want %d bytes (a hello and %d frames), %d delivered, none dropped", st, want, n, n)
	}
}

// TestWrittenResumesAtFirstUnfinishedFrame pins what a failed write of n
// bytes leaves to resend and what it counts as written: the retry starts
// at the first frame not written in full, and only whole pieces count — a
// hello cut short counts nothing.
func TestWrittenResumesAtFirstUnfinishedFrame(t *testing.T) {
	frames := [][]byte{make([]byte, 14), make([]byte, 20), make([]byte, 30)}
	const hello = 4
	for _, c := range []struct {
		name        string
		hello, n    int
		done, whole int
	}{
		{"nothing", hello, 0, 0, 0},
		{"inside-the-hello", hello, 3, 0, 0},
		{"the-hello-alone", hello, hello, 0, hello},
		{"on-a-frame-boundary", hello, hello + 14, 1, hello + 14},
		{"inside-a-frame", hello, hello + 14 + 19, 1, hello + 14},
		{"inside-the-last-frame", hello, hello + 14 + 20 + 1, 2, hello + 14 + 20},
		{"everything", hello, hello + 14 + 20 + 30, 3, hello + 14 + 20 + 30},
		{"no-hello-on-an-open-connection", 0, 14 + 20, 2, 14 + 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			done, whole := written(c.hello, frames, c.n)
			if done != c.done || whole != c.whole {
				t.Fatalf("written(%d, %d B) = (%d frames, %d B), want (%d, %d)", c.hello, c.n, done, whole, c.done, c.whole)
			}
		})
	}
}

// cutConn takes the first room bytes written to it and fails the write
// that goes past them, like a connection reset in the middle of a write.
// It stands in for an established connection: the writer calls only
// SetWriteDeadline, Write and Close on it.
type cutConn struct {
	net.Conn
	room int
	got  []byte
}

func (c *cutConn) Write(p []byte) (int, error) {
	n := min(len(p), c.room)
	c.room -= n
	c.got = append(c.got, p[:n]...)
	if n < len(p) {
		return n, io.ErrClosedPipe
	}
	return n, nil
}

func (c *cutConn) SetWriteDeadline(time.Time) error { return nil }
func (c *cutConn) Close() error                     { return nil }

// TestFailedWriteResendsOnlyWhatItDidNotFinish: a burst whose write is cut
// off three bytes into its third frame counts two frames sent. The retry
// dials a fresh connection, writes its hello and resends from the third
// frame, so the receiver gets frames 3–5 once each and no frame goes out
// twice.
func TestFailedWriteResendsOnlyWhatItDidNotFinish(t *testing.T) {
	res := defaultResilience
	res.backoff = backoff{base: time.Millisecond, max: 2 * time.Millisecond, factor: 2}
	f, err := newTCPWith(res)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var in inbox
	f.Register("s1", &in)
	msgs := numbered(5)
	frames := make([][]byte, len(msgs))
	for i, msg := range msgs {
		if frames[i], err = f.buildFrame(msg); err != nil {
			t.Fatal(err)
		}
	}
	l, err := f.link("c1", "s1")
	if err != nil {
		t.Fatal(err)
	}
	cut := &cutConn{room: len(frames[0]) + len(frames[1]) + 3}
	l.setConn(cut) // the link's writer is idle: nothing is queued
	if sent, err := l.transmit(frames); sent != len(frames) || err != nil {
		t.Fatalf("transmit = %d, %v; want all %d frames sent", sent, err, len(frames))
	}
	_, got := in.await(t, 3)
	f.InvokeWait("s1", func() {})
	if !reflect.DeepEqual(got, msgs[2:]) {
		t.Fatalf("receiver got %v, want frames 3-5 once each: %v", got, msgs[2:])
	}
	hello, _ := buildHello("c1")
	want := uint64(len(cut.got) - 3 + len(hello) + len(frames[2]) + len(frames[3]) + len(frames[4]))
	if st, rs := f.Stats(), f.Resilience(); st.Bytes != want || rs != (ResilienceStats{Retries: 1, Reconnects: 1}) {
		t.Fatalf("bytes %d, want %d (two frames on the cut connection, then a hello and three frames); resilience %+v, want one retry and one reconnect", st.Bytes, want, rs)
	}
}

// BenchmarkTCPLink sends bursts of 1 and of 32 frames of about 300 bytes
// over one peer link and waits for each burst to be handled. It reports
// time and allocations per frame, writer, reader and mailbox together.
func BenchmarkTCPLink(b *testing.B) {
	msg := bft.Request{Payload: bytes.Repeat([]byte{7}, 290)}
	for _, burst := range []int{1, 32} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			f, err := NewTCP(protocol.NewWireCodec(nil))
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			handled := make(chan struct{}, 1)
			got := 0 // only s1's mailbox touches it
			f.Register("s1", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {
				if got++; got%burst == 0 {
					handled <- struct{}{}
				}
			}))
			send := func() {
				for j := 0; j < burst; j++ {
					f.Send("c1", "s1", msg, 0)
				}
				<-handled
			}
			send() // dial and hello outside the timing
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			frames := float64(b.N * burst)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/frames, "allocs/frame")
		})
	}
}
