package livenet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cicero/internal/fabric"
)

// maxFrameBytes caps one wire frame. Legitimate Cicero messages are a few
// kilobytes (the largest carry Feldman commitment vectors); anything near
// the cap is a corrupted or hostile length prefix, and rejecting it keeps
// a bad frame from forcing a huge allocation.
const maxFrameBytes = 1 << 22

// TCP is the live backend over TCP sockets. Every registered node gets
// its own listener on 127.0.0.1 (kernel-assigned port); each (from, to)
// pair gets a peer link: a bounded outbound queue drained by a writer
// goroutine that dials lazily, writes whatever is queued (up to maxBurst
// frames) in one system call under one write deadline, retries with
// bounded exponential backoff and jitter, and sits behind a per-peer
// circuit breaker that trips after repeated dial failures and probes
// half-open after a cooldown. A link's connection names its sender once,
// in the hello it opens with, and then carries length-prefixed wire-codec
// frames, which the receiving side reads through one buffered reader:
//
//	hello: [2B id length][sender id]
//	frame: [4B frame length][8B lamport clock][codec bytes]
//
// The fabric runs in two shapes. The single-process shape (NewTCP) hosts
// every node in one process: crash and partition state is enforced at the
// sending fabric, and a crash additionally severs the node's sockets —
// its listener closes, its accepted connections drop, and every peer link
// touching it shuts down — while a restart re-listens on a fresh port, so
// recovery exercises real redials. The multi-process shape (NewTCPNode)
// hosts only this process's nodes locally and routes every other
// destination through a static address map (internal/distrib): crashes
// there are real SIGKILLs and partitions are sockets severed by the
// supervisor's per-node proxies, not flags in shared memory.
type TCP struct {
	base
	codec Codec
	res   resilience
	rng   *lockedRand
	// remotes maps nodes hosted by other processes to their dial
	// addresses (the distributed deployment's static address map). Local
	// registrations always win, so a process's own nodes short-circuit.
	remotes map[fabric.NodeID]string
	// clock, when set, stamps every outbound frame and observes every
	// inbound one (cross-process causal order for trace merging).
	clock *LamportClock

	lmu       sync.Mutex
	tclosed   bool
	addrs     map[fabric.NodeID]string
	listeners map[fabric.NodeID]net.Listener
	inbound   map[net.Conn]fabric.NodeID
	links     map[[2]fabric.NodeID]*peerLink
	lwg       sync.WaitGroup // accept + reader + link writer goroutines
}

var (
	_ fabric.Fabric        = (*TCP)(nil)
	_ fabric.FaultInjector = (*TCP)(nil)
)

// NewTCP builds a single-process TCP fabric; the codec is required
// (messages must cross a real wire).
func NewTCP(codec Codec) (*TCP, error) {
	return NewTCPNode(TCPOptions{Codec: codec})
}

// TCPOptions configures a TCP fabric.
type TCPOptions struct {
	// Codec serializes messages for the wire (required).
	Codec Codec
	// Remotes is the static address map of the distributed deployment:
	// node id -> dial address for every node hosted by another process.
	// Nil or empty keeps the single-process behavior (sends to
	// unregistered nodes fail with ErrUnknownNode).
	Remotes map[fabric.NodeID]string
	// Clock, when non-nil, is ticked for every outbound frame and
	// observed for every inbound one, establishing a cross-process
	// Lamport order.
	Clock *LamportClock
}

// NewTCPNode builds a TCP fabric for one process of a multi-process
// deployment: nodes registered here are served locally, every address in
// opts.Remotes is reachable over the wire, and frames carry the process's
// Lamport clock when one is provided.
func NewTCPNode(opts TCPOptions) (*TCP, error) {
	if opts.Codec == nil {
		return nil, errors.New("livenet: tcp fabric requires a codec")
	}
	remotes := make(map[fabric.NodeID]string, len(opts.Remotes))
	for id, addr := range opts.Remotes {
		remotes[id] = addr
	}
	return &TCP{
		base:      newBase(),
		codec:     opts.Codec,
		res:       defaultResilience,
		rng:       newLockedRand(time.Now().UnixNano()),
		remotes:   remotes,
		clock:     opts.Clock,
		addrs:     make(map[fabric.NodeID]string),
		listeners: make(map[fabric.NodeID]net.Listener),
		inbound:   make(map[net.Conn]fabric.NodeID),
		links:     make(map[[2]fabric.NodeID]*peerLink),
	}, nil
}

// Clock returns the fabric's Lamport clock (nil unless configured).
func (t *TCP) Clock() *LamportClock { return t.clock }

// Register adds the node and opens its listener. Listener failure is
// fatal to the node's reachability; it is reported via panic because it
// only happens when the host is out of ports or sockets are forbidden —
// both unrecoverable for a benchmark run.
func (t *TCP) Register(id fabric.NodeID, h fabric.Handler) {
	t.base.Register(id, h)
	t.lmu.Lock()
	defer t.lmu.Unlock()
	if t.tclosed {
		return
	}
	if _, ok := t.listeners[id]; ok {
		return // re-registration replaces the handler only
	}
	t.listen(id)
}

// listen opens the node's listener and starts its accept loop (lmu held).
func (t *TCP) listen(id fabric.NodeID) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("livenet: listen for %s: %v", id, err))
	}
	t.listeners[id] = ln
	t.addrs[id] = ln.Addr().String()
	t.lwg.Add(1)
	go t.acceptLoop(id, ln)
}

// Addr returns the node's listen address (for logging and the
// multi-process deployment, internal/distrib). A crashed node has no
// address until it restarts.
func (t *TCP) Addr(id fabric.NodeID) string {
	t.lmu.Lock()
	defer t.lmu.Unlock()
	return t.addrs[id]
}

// acceptLoop accepts inbound connections for one node until its listener
// closes (fabric shutdown or a crash fault).
func (t *TCP) acceptLoop(id fabric.NodeID, ln net.Listener) {
	defer t.lwg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		t.lmu.Lock()
		if t.tclosed {
			t.lmu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = id
		t.lmu.Unlock()
		t.lwg.Add(1)
		go t.readLoop(id, conn)
	}
}

// dropInbound forgets a finished inbound connection.
func (t *TCP) dropInbound(conn net.Conn) {
	t.lmu.Lock()
	delete(t.inbound, conn)
	t.lmu.Unlock()
}

// keptFrameBytes bounds the body buffer a connection reuses from frame to
// frame. A longer frame is read into an allocation of its own and let go,
// so a hostile length prefix cannot pin maxFrameBytes per connection.
const keptFrameBytes = 64 << 10

// readLoop reads the hello an inbound connection opens with, then parses
// frames off it and delivers each to the owning node's mailbox as sent by
// the id the hello named. Hello and frames come through one default-size
// buffered reader, and each body up to keptFrameBytes lands in one buffer
// the connection reuses: parseFrame's codec copies out everything it
// keeps. A malformed hello, an oversized frame or a frame that does not
// parse tears the connection down (the sender will reconnect).
func (t *TCP) readLoop(to fabric.NodeID, conn net.Conn) {
	defer t.lwg.Done()
	defer t.dropInbound(conn)
	defer conn.Close()
	r := bufio.NewReader(conn)
	from, err := ReadHello(r)
	if err != nil {
		if errors.Is(err, errHello) {
			t.st.droppedUnknown.Add(1)
		}
		return
	}
	var header [4]byte
	var kept []byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return
		}
		frameLen := binary.BigEndian.Uint32(header[:])
		if frameLen > maxFrameBytes {
			t.st.droppedUnknown.Add(1)
			return
		}
		var frame []byte
		switch {
		case frameLen > keptFrameBytes:
			frame = make([]byte, frameLen)
		case int(frameLen) > cap(kept):
			kept = make([]byte, frameLen)
			frame = kept
		default:
			frame = kept[:frameLen]
		}
		if _, err := io.ReadFull(r, frame); err != nil {
			return
		}
		clock, msg, err := t.parseFrame(frame)
		if err != nil {
			t.st.droppedUnknown.Add(1)
			return
		}
		if t.Crashed(to) {
			// The node crashed while the frame was in flight.
			t.st.droppedCrash.Add(1)
			continue
		}
		n, ok := t.lookup(to)
		if !ok {
			t.st.droppedUnknown.Add(1)
			continue
		}
		n.enqueue(func() {
			if t.clock != nil {
				t.clock.Observe(clock)
			}
			t.st.delivered.Add(1)
			n.handler().HandleMessage(from, msg)
		})
	}
}

// Send encodes msg and hands it to the peer link's writer (fire-and-
// forget form). Drop rules match the other backends.
func (t *TCP) Send(from, to fabric.NodeID, msg fabric.Message, size int) {
	_ = t.SendErr(from, to, msg, size)
}

// SendErr is Send with a typed verdict. It never blocks: a crashed,
// partitioned, or unknown destination, an injected drop, an encode
// failure, an open circuit breaker, or a full peer queue all fail fast
// with the matching typed error. A nil return means the frame was
// accepted by the peer link's writer; delivery remains best-effort
// (datagram semantics — the writer's retry budget can still run out).
func (t *TCP) SendErr(from, to fabric.NodeID, msg fabric.Message, size int) error {
	if _, err := t.admitSend(from, to, t.hasRemote(to)); err != nil {
		return err
	}
	msg, copies, delay, err := t.inject(from, to, msg, size)
	if err != nil {
		return err
	}
	frame, err := t.buildFrame(msg)
	if err != nil {
		t.st.droppedUnknown.Add(1)
		return ErrEncode
	}
	var firstErr error
	for i := 0; i < copies; i++ {
		if delay > 0 {
			// Judged when it fires, like inproc: the destination may have
			// crashed, or restarted on a fresh listener, meanwhile.
			time.AfterFunc(delay, func() {
				if t.Crashed(to) {
					t.st.droppedCrash.Add(1)
					return
				}
				_ = t.enqueue(from, to, frame)
			})
			continue
		}
		if err := t.enqueue(from, to, frame); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// enqueue hands one frame to the (from, to) peer link's writer.
func (t *TCP) enqueue(from, to fabric.NodeID, frame []byte) error {
	l, err := t.link(from, to)
	if err != nil {
		t.st.droppedUnknown.Add(1)
		return err
	}
	return l.send(frame)
}

// maxHelloID bounds the sender id a hello may name. Node ids are a few
// dozen bytes (`dom0/ctl/1`, `d0-p0-edge0`); the bound keeps a hostile
// length from forcing an allocation.
const maxHelloID = 256

// errHello reports a hello naming no id or one past maxHelloID. A frame
// where the hello belongs names no id: a length below 64 KiB opens 0x0000.
var errHello = errors.New("livenet: malformed connection hello")

// WriteHello writes the hello that opens every connection a peer link
// dials, [2B id length][id], and returns the bytes written. The id names
// the sender of every frame that follows on the connection.
func WriteHello(w io.Writer, id fabric.NodeID) (int, error) {
	hello, err := buildHello(id)
	if err != nil {
		return 0, err
	}
	return w.Write(hello)
}

// buildHello returns the hello's bytes, [2B id length][id].
func buildHello(id fabric.NodeID) ([]byte, error) {
	if len(id) == 0 || len(id) > maxHelloID {
		return nil, errHello
	}
	return append(binary.BigEndian.AppendUint16(nil, uint16(len(id))), id...), nil
}

// ReadHello reads the hello a connection opens with and returns the id it
// names. The length is checked against maxHelloID before the id is
// allocated.
func ReadHello(r io.Reader) (fabric.NodeID, error) {
	var size [2]byte
	if _, err := io.ReadFull(r, size[:]); err != nil {
		return "", err
	}
	n := int(binary.BigEndian.Uint16(size[:]))
	if n == 0 || n > maxHelloID {
		return "", errHello
	}
	id := make([]byte, n)
	if _, err := io.ReadFull(r, id); err != nil {
		return "", err
	}
	return fabric.NodeID(id), nil
}

// clockBytes is the Lamport clock that opens every frame body.
const clockBytes = 8

// parseFrame splits one frame body (the bytes after the length prefix)
// into the sender's Lamport clock and the decoded message.
func (t *TCP) parseFrame(body []byte) (clock uint64, msg fabric.Message, err error) {
	if len(body) < clockBytes {
		return 0, nil, io.ErrUnexpectedEOF // the body ends inside its clock
	}
	msg, err = t.codec.Decode(body[clockBytes:])
	return binary.BigEndian.Uint64(body[:clockBytes]), msg, err
}

// typicalCodecBytes is the room buildFrame reserves behind the header:
// most protocol messages encode into it, so header and payload share one
// allocation; the codec grows the buffer for the rest.
const typicalCodecBytes = 512

// buildFrame assembles the length-prefixed wire frame: the length and
// clock, then msg encoded in place behind them. The Lamport clock ticks
// only for a frame that encoded.
func (t *TCP) buildFrame(msg fabric.Message) ([]byte, error) {
	const header = 4 + clockBytes
	frame := make([]byte, header, header+typicalCodecBytes)
	frame, err := t.codec.AppendEncode(frame, msg)
	if err != nil {
		return nil, err
	}
	if len(frame)-4 > maxFrameBytes {
		return nil, ErrEncode
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	if t.clock != nil {
		binary.BigEndian.PutUint64(frame[4:header], t.clock.Tick())
	}
	return frame, nil
}

// hasRemote reports whether the node has a static remote address (and is
// therefore sendable even when not registered in this process).
func (t *TCP) hasRemote(to fabric.NodeID) bool {
	_, ok := t.remotes[to]
	return ok
}

// link returns (creating if needed) the peer link for (from, to).
func (t *TCP) link(from, to fabric.NodeID) (*peerLink, error) {
	key := [2]fabric.NodeID{from, to}
	t.lmu.Lock()
	defer t.lmu.Unlock()
	if t.tclosed {
		return nil, ErrFabricClosed
	}
	if _, ok := t.addrs[to]; !ok && !t.hasRemote(to) {
		return nil, ErrUnknownNode
	}
	l, ok := t.links[key]
	if !ok {
		l = &peerLink{
			t:    t,
			from: from,
			to:   to,
			outq: make(chan []byte, t.res.queueLen),
			done: make(chan struct{}),
			brk: newBreaker(t.res.breakerThreshold, t.res.breakerCooldown,
				func() { t.st.breakerTrips.Add(1) }),
		}
		t.links[key] = l
		t.lwg.Add(1)
		go l.run()
	}
	return l, nil
}

// dial opens a connection to the node's current listen address (locally
// registered nodes win over static remote routes), bounded by the
// configured dial timeout.
func (t *TCP) dial(to fabric.NodeID) (net.Conn, error) {
	t.lmu.Lock()
	addr, ok := t.addrs[to]
	t.lmu.Unlock()
	if !ok {
		addr, ok = t.remotes[to]
	}
	if !ok {
		return nil, ErrUnknownNode
	}
	return net.DialTimeout("tcp", addr, t.res.dialTimeout)
}

// Crash marks the node failed and severs its sockets: its listener
// closes, its accepted inbound connections drop, and every peer link
// touching it shuts down. Queued frames on those links are lost — the
// volatile-state semantics of a real crash.
func (t *TCP) Crash(id fabric.NodeID) {
	t.base.Crash(id)
	t.lmu.Lock()
	ln := t.listeners[id]
	delete(t.listeners, id)
	delete(t.addrs, id)
	var conns []net.Conn
	for c, owner := range t.inbound {
		if owner == id {
			conns = append(conns, c)
		}
	}
	var links []*peerLink
	for key, l := range t.links {
		if key[0] == id || key[1] == id {
			links = append(links, l)
			delete(t.links, key)
		}
	}
	t.lmu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, l := range links {
		l.close()
	}
}

// Restart clears the crash flag and brings the node back on a fresh
// listener (new kernel-assigned port — senders discover it on their next
// dial). The node's volatile transport state is gone; protocol-level
// recovery is the application's job.
func (t *TCP) Restart(id fabric.NodeID) {
	t.base.Restart(id)
	if _, ok := t.lookup(id); !ok {
		return
	}
	t.lmu.Lock()
	defer t.lmu.Unlock()
	if t.tclosed {
		return
	}
	if _, ok := t.listeners[id]; !ok {
		t.listen(id)
	}
}

// Close tears down listeners, connections, links, and mailboxes, then
// waits for every fabric goroutine to exit.
func (t *TCP) Close() {
	t.lmu.Lock()
	if t.tclosed {
		t.lmu.Unlock()
		t.closeNodes()
		return
	}
	t.tclosed = true
	listeners := t.listeners
	t.listeners = make(map[fabric.NodeID]net.Listener)
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	links := make([]*peerLink, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	t.lmu.Unlock()
	for _, ln := range listeners {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, l := range links {
		l.close()
	}
	t.lwg.Wait()
	t.closeNodes()
}

// maxBurst bounds the frames one write carries: the frame the writer woke
// for, then whatever else its queue already holds.
const maxBurst = 64

// peerLink is one (from, to) outbound path: a bounded queue drained by a
// writer goroutine behind a circuit breaker.
type peerLink struct {
	t        *TCP
	from, to fabric.NodeID
	outq     chan []byte
	done     chan struct{}
	once     sync.Once
	brk      *breaker
	// iov and unsent are the writer's: one write's hello and frames, and
	// the copy of the slice that WriteTo consumes as it writes.
	iov, unsent net.Buffers

	// cmu guards conn; the writer goroutine owns the connection lifecycle
	// but crash severing (and tests) close it from outside.
	cmu       sync.Mutex
	conn      net.Conn
	connected bool // a connection has existed before (reconnect accounting)
}

// send enqueues one frame, failing fast when the breaker is open, the
// link is shut down, or the bounded queue is full.
func (l *peerLink) send(frame []byte) error {
	if l.brk.Rejecting(time.Now()) {
		l.t.st.droppedUnknown.Add(1)
		return ErrPeerUnreachable
	}
	select {
	case <-l.done:
		l.t.st.droppedUnknown.Add(1)
		return ErrPeerUnreachable
	default:
	}
	select {
	case l.outq <- frame:
		return nil
	default:
		l.t.st.droppedUnknown.Add(1)
		return ErrSendQueueFull
	}
}

// close shuts the link down; the writer goroutine exits and closes the
// connection.
func (l *peerLink) close() {
	l.once.Do(func() { close(l.done) })
}

// run is the writer goroutine: it takes the frame it woke for and whatever
// else is already queued, up to maxBurst, and transmits them together. A
// frame the burst could not get out counts as one unknown drop.
func (l *peerLink) run() {
	defer l.t.lwg.Done()
	defer l.closeConn()
	burst := make([][]byte, 0, maxBurst)
	for {
		select {
		case <-l.done:
			return
		case frame := <-l.outq:
			burst = append(burst, frame)
			for len(burst) < maxBurst && len(l.outq) > 0 {
				burst = append(burst, <-l.outq)
			}
			if sent, err := l.transmit(burst); err != nil {
				l.t.st.droppedUnknown.Add(uint64(len(burst) - sent))
			}
			// Let the frames go. Their bytes are never reused: SendErr
			// queues one slice once per duplicate copy.
			clear(burst)
			burst = burst[:0]
		}
	}
}

// transmit writes the frames in order with one write per attempt, dialing
// as needed, under bounded retries, and returns how many went out whole. A
// fresh connection gets the link's hello first, in the same write; a
// failed write counts what it finished (written) and the next attempt, on
// a fresh connection behind a fresh hello, resumes at the first frame it
// did not, so the link never writes a frame twice.
func (l *peerLink) transmit(frames [][]byte) (int, error) {
	res := l.t.res
	var lastErr error
	sent := 0
	for attempt := 1; attempt <= res.maxAttempts; attempt++ {
		if attempt > 1 {
			l.t.st.retries.Add(1)
			if !l.wait(res.backoff.delay(attempt-1, l.t.rng.Float64)) {
				return sent, ErrPeerUnreachable // link shut down mid-backoff
			}
		}
		conn := l.currentConn()
		var hello []byte
		if conn == nil {
			now := time.Now()
			if !l.brk.Allow(now) {
				lastErr = ErrPeerUnreachable
				continue
			}
			c, err := l.t.dial(l.to)
			if err != nil {
				l.brk.Failure(time.Now())
				lastErr = err
				continue
			}
			l.brk.Success()
			conn = c
			if !l.setConn(c) {
				return sent, ErrPeerUnreachable // link closed while dialing
			}
			if hello, err = buildHello(l.from); err != nil {
				l.dropConn(conn)
				lastErr = err
				continue
			}
		}
		conn.SetWriteDeadline(time.Now().Add(res.writeTimeout))
		l.iov = l.iov[:0]
		if hello != nil {
			l.iov = append(l.iov, hello)
		}
		l.iov = append(l.iov, frames[sent:]...)
		l.unsent = l.iov
		n, err := l.unsent.WriteTo(conn)
		done, whole := written(len(hello), frames[sent:], int(n))
		l.t.st.bytes.Add(uint64(whole))
		sent += done
		if err != nil {
			l.dropConn(conn)
			lastErr = err
		}
		if sent == len(frames) {
			return sent, nil
		}
	}
	return sent, lastErr
}

// written splits the n bytes a write of hello ‖ frames got out into what
// it finished: how many frames went out whole, and the bytes of what went
// out whole, the hello included. A frame cut short goes again in full,
// behind the next connection's hello; so does one behind a hello cut
// short.
func written(hello int, frames [][]byte, n int) (done, whole int) {
	if n < hello {
		return 0, 0
	}
	whole = hello
	for done < len(frames) && n-whole >= len(frames[done]) {
		whole += len(frames[done])
		done++
	}
	return done, whole
}

// wait sleeps for the backoff delay, returning false if the link shuts
// down first.
func (l *peerLink) wait(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-l.done:
		return false
	}
}

// currentConn reads the cached connection.
func (l *peerLink) currentConn() net.Conn {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	return l.conn
}

// setConn installs a freshly dialed connection, counting a reconnect when
// it replaces an earlier one. It refuses (closing the connection) when
// the link has shut down meanwhile.
func (l *peerLink) setConn(c net.Conn) bool {
	select {
	case <-l.done:
		c.Close()
		return false
	default:
	}
	l.cmu.Lock()
	if l.connected {
		l.t.st.reconnects.Add(1)
	}
	l.connected = true
	l.conn = c
	l.cmu.Unlock()
	return true
}

// dropConn discards a failed connection (only if still current).
func (l *peerLink) dropConn(c net.Conn) {
	c.Close()
	l.cmu.Lock()
	if l.conn == c {
		l.conn = nil
	}
	l.cmu.Unlock()
}

// closeConn closes whatever connection the link holds.
func (l *peerLink) closeConn() {
	l.cmu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.cmu.Unlock()
}
