package distrib

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/livenet"
)

// proxyRig is one proxy in front of a bare listener standing in for a node
// process: every connection the proxy opens to it arrives on accepted.
type proxyRig struct {
	p        *proxy
	accepted chan net.Conn
}

func newProxyRig(t *testing.T) *proxyRig {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &proxyRig{accepted: make(chan net.Conn, 8)}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			r.accepted <- c
		}
	}()
	r.p, err = newProxy("n")
	if err != nil {
		t.Fatal(err)
	}
	r.p.SetBackend(ln.Addr().String())
	t.Cleanup(func() {
		r.p.Close()
		ln.Close()
		for {
			select {
			case c := <-r.accepted:
				c.Close()
			default:
				return
			}
		}
	})
	return r
}

// dial opens a connection to the proxy's front and sends the hello.
func (r *proxyRig) dial(t *testing.T, sender fabric.NodeID) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", r.p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := livenet.WriteHello(c, sender); err != nil {
		t.Fatal(err)
	}
	return c
}

// backend returns the next connection the proxy opened to the node and
// the sender its forwarded hello names.
func (r *proxyRig) backend(t *testing.T) (net.Conn, fabric.NodeID) {
	t.Helper()
	select {
	case c := <-r.accepted:
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		sender, err := livenet.ReadHello(c)
		if err != nil {
			t.Fatalf("forwarded hello: %v", err)
		}
		return c, sender
	case <-time.After(5 * time.Second):
		t.Fatal("the proxy opened no connection to the node")
		return nil, ""
	}
}

// severed requires the peer to have closed c: a read ends in an error
// other than the deadline's.
func severed(t *testing.T, c net.Conn, what string) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := c.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
		t.Fatalf("%s: still open (%v)", what, err)
	}
}

// TestProxySplicesBytesUnchanged: after the hello, what a sender writes
// reaches the node byte for byte, whatever it is.
func TestProxySplicesBytesUnchanged(t *testing.T) {
	r := newProxyRig(t)
	front := r.dial(t, "x")
	payload := make([]byte, 70_000) // not a frame: the proxy reads none
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	go front.Write(payload)
	back, sender := r.backend(t)
	if sender != "x" {
		t.Fatalf("forwarded hello names %q, want x", sender)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(back, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("the node read other bytes than the sender wrote")
	}
}

// TestProxyBlockAndSetBackend: Block severs a sender's open connection and
// refuses its next one until Unblock, leaving other senders alone;
// SetBackend severs every connection.
func TestProxyBlockAndSetBackend(t *testing.T) {
	r := newProxyRig(t)
	x := r.dial(t, "x")
	xBack, _ := r.backend(t)
	y := r.dial(t, "y")
	yBack, _ := r.backend(t)

	r.p.Block("x")
	severed(t, x, "x's front after Block")
	severed(t, xBack, "x's backend connection after Block")
	severed(t, r.dial(t, "x"), "x's next connection while blocked")
	// The proxy opened nothing for x: the next connection the node sees
	// is z's.
	r.dial(t, "z")
	if _, sender := r.backend(t); sender != "z" {
		t.Fatalf("the node's next connection names %q, want z", sender)
	}
	if _, err := y.Write([]byte("still")); err != nil {
		t.Fatal(err)
	}
	yBack.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(yBack, make([]byte, 5)); err != nil {
		t.Fatalf("y's connection after x was blocked: %v", err)
	}

	r.p.Unblock("x")
	r.dial(t, "x")
	if _, sender := r.backend(t); sender != "x" {
		t.Fatalf("after Unblock the node's next connection names %q, want x", sender)
	}

	r.p.SetBackend("")
	severed(t, y, "y's front after SetBackend")
	severed(t, yBack, "y's backend connection after SetBackend")
}
