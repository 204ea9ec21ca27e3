package distrib

import (
	"io"
	"net"
	"sync"
	"time"

	"cicero/internal/livenet"
)

// proxy is one node's stable inbound face. Peers dial the proxy's fixed
// front address; the proxy reads the hello that names a connection's
// sender and splices the rest, unread, to the node process's current real
// listener. This indirection is what makes the fault plane socket-level: a
// partition blocks a sender by closing (and refusing) its connections at
// the victim's proxy, and a SIGKILL clears the backend so every peer's
// connection dies until the process reboots and re-registers.
type proxy struct {
	node string
	ln   net.Listener

	mu      sync.Mutex
	backend string          // current real listener address, "" while down
	blocked map[string]bool // sender ids whose connections are severed
	fronts  map[net.Conn]string
	backs   map[net.Conn]net.Conn
	closed  bool

	wg sync.WaitGroup
}

// newProxy binds the node's stable front listener.
func newProxy(node string) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{
		node:    node,
		ln:      ln,
		blocked: make(map[string]bool),
		fronts:  make(map[net.Conn]string),
		backs:   make(map[net.Conn]net.Conn),
	}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr is the stable front address peers dial.
func (p *proxy) Addr() string { return p.ln.Addr().String() }

// SetBackend points the proxy at the node's current real listener ("" =
// node down). All existing connections are severed either way: after a
// restart peers must redial (the old process is gone), and after a kill
// their sockets must die like the process did.
func (p *proxy) SetBackend(addr string) {
	p.mu.Lock()
	p.backend = addr
	conns := p.takeConnsLocked(func(string) bool { return true })
	p.mu.Unlock()
	closeAll(conns)
}

// Block severs the sender: its open connections close, and its new ones
// close once their hello names it.
func (p *proxy) Block(sender string) {
	p.mu.Lock()
	p.blocked[sender] = true
	conns := p.takeConnsLocked(func(s string) bool { return s == sender })
	p.mu.Unlock()
	closeAll(conns)
}

// Unblock heals the sender's path; it reconnects on its next frame.
func (p *proxy) Unblock(sender string) {
	p.mu.Lock()
	delete(p.blocked, sender)
	p.mu.Unlock()
}

// Close shuts the proxy down and waits for its goroutines.
func (p *proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	conns := p.takeConnsLocked(func(string) bool { return true })
	p.mu.Unlock()
	p.ln.Close()
	closeAll(conns)
	p.wg.Wait()
}

// takeConnsLocked removes and returns every connection whose learned
// sender matches (front and back halves); p.mu must be held.
func (p *proxy) takeConnsLocked(match func(sender string) bool) []net.Conn {
	var out []net.Conn
	for front, sender := range p.fronts {
		if !match(sender) {
			continue
		}
		out = append(out, front)
		if back := p.backs[front]; back != nil {
			out = append(out, back)
		}
		delete(p.fronts, front)
		delete(p.backs, front)
	}
	return out
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		c.Close()
	}
}

// accept runs the front listener.
func (p *proxy) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.fronts[conn] = ""
		p.mu.Unlock()
		p.wg.Add(1)
		go p.relay(conn)
	}
}

// relay reads the hello a front connection opens with, then splices the
// connection unread onto a fresh one to the node's current backend,
// severing it when its sender is blocked or the node is down.
func (p *proxy) relay(front net.Conn) {
	defer p.wg.Done()
	var back net.Conn
	defer func() {
		front.Close()
		if back != nil {
			back.Close()
		}
		p.mu.Lock()
		delete(p.fronts, front)
		delete(p.backs, front)
		p.mu.Unlock()
	}()
	sender, err := livenet.ReadHello(front)
	if err != nil {
		return
	}
	p.mu.Lock()
	_, open := p.fronts[front] // a sever takes the connection out of fronts
	backend := p.backend
	if !open || p.blocked[string(sender)] || backend == "" {
		p.mu.Unlock()
		return // blocked, or the node is down: the sender's socket dies too
	}
	p.fronts[front] = string(sender)
	p.mu.Unlock()
	if back, err = net.DialTimeout("tcp", backend, time.Second); err != nil {
		return
	}
	p.mu.Lock()
	p.backs[front] = back
	p.mu.Unlock()
	if _, err := livenet.WriteHello(back, sender); err != nil {
		return
	}
	// Ends when either side closes or is severed (a front severed while the
	// dial was under way is already closed); the deferred closes then take
	// down the other.
	_, _ = io.Copy(back, front)
}
