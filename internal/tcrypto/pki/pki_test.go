package pki

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha512"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
)

// party registers a fresh key pair for id and returns it with its link.
func party(t testing.TB, dir *Directory, id Identity) (*KeyPair, *Link) {
	t.Helper()
	kp, err := NewKeyPair(rand.Reader, id)
	if err != nil {
		t.Fatalf("NewKeyPair: %v", err)
	}
	dir.MustRegister(kp)
	return kp, NewLink(kp, dir)
}

// Remove deletes an identity, as a directory that forgets a peer would:
// links refuse it from the next envelope on.
func (d *Directory) Remove(id Identity) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.keys, id)
}

func TestSealOpenRoundTrip(t *testing.T) {
	dir := NewDirectory()
	_, sw := party(t, dir, "dom0/sw/tor-1")
	_, ctl := party(t, dir, "dom0/ctl/1")

	env, err := sw.Seal("dom0/ctl/1", []byte("packet-in: unroutable dst=h9"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if env.From != "dom0/sw/tor-1" || len(env.Tag) != TagSize {
		t.Fatalf("envelope from %q with a %d-byte tag", env.From, len(env.Tag))
	}
	payload, err := ctl.Open(env)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if string(payload) != "packet-in: unroutable dst=h9" {
		t.Fatalf("payload corrupted: %q", payload)
	}
	// The same pairwise key serves the other direction.
	back, err := ctl.Seal("dom0/sw/tor-1", nil)
	if err != nil {
		t.Fatalf("Seal back: %v", err)
	}
	if _, err := sw.Open(back); err != nil {
		t.Fatalf("Open back: %v", err)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	dir := NewDirectory()
	_, sw := party(t, dir, "dom0/sw/tor-1")
	_, ctl := party(t, dir, "dom0/ctl/1")
	sealed, err := sw.Seal("dom0/ctl/1", []byte("legitimate event"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), sealed.Tag...)
	flipped[7] ^= 1
	for name, env := range map[string]Envelope{
		"payload":       {From: sealed.From, Payload: []byte("forged event"), Tag: sealed.Tag},
		"tag bit":       {From: sealed.From, Payload: sealed.Payload, Tag: flipped},
		"truncated tag": {From: sealed.From, Payload: sealed.Payload, Tag: sealed.Tag[:TagSize-1]},
		"oversized tag": {From: sealed.From, Payload: sealed.Payload, Tag: append(append([]byte(nil), sealed.Tag...), 0)},
		"no tag":        {From: sealed.From, Payload: sealed.Payload},
	} {
		if _, err := ctl.Open(env); !errors.Is(err, ErrBadTag) {
			t.Errorf("%s: expected ErrBadTag, got %v", name, err)
		}
	}
	if _, err := ctl.Open(sealed); err != nil {
		t.Fatalf("untouched envelope: %v", err)
	}
}

func TestOpenRejectsUnknownIdentity(t *testing.T) {
	dir := NewDirectory()
	_, ctl := party(t, dir, "dom0/ctl/1")
	// The intruder knows the directory but is not in it.
	kp, _ := NewKeyPair(rand.Reader, "intruder")
	env, err := NewLink(kp, dir).Seal("dom0/ctl/1", []byte("event from nowhere"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := ctl.Open(env); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("expected ErrUnknownIdentity, got %v", err)
	}
	if _, err := ctl.Seal("intruder", []byte("m")); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("seal to an unregistered peer: expected ErrUnknownIdentity, got %v", err)
	}
}

func TestOpenRejectsMasquerade(t *testing.T) {
	// A malicious controller masquerading as a switch (the paper's §2.2
	// threat): it tags with its own key but claims a switch identity.
	dir := NewDirectory()
	party(t, dir, "dom0/sw/tor-1")
	_, evil := party(t, dir, "dom0/ctl/666")
	_, ctl := party(t, dir, "dom0/ctl/1")

	env, err := evil.Seal("dom0/ctl/1", []byte("link down: s4-s5"))
	if err != nil {
		t.Fatal(err)
	}
	env.From = "dom0/sw/tor-1" // claim to be the switch
	if _, err := ctl.Open(env); !errors.Is(err, ErrBadTag) {
		t.Fatalf("expected ErrBadTag, got %v", err)
	}
}

func TestOpenRejectsWrongAddressee(t *testing.T) {
	dir := NewDirectory()
	_, sw := party(t, dir, "dom0/sw/tor-1")
	_, ctl1 := party(t, dir, "dom0/ctl/1")
	_, ctl2 := party(t, dir, "dom0/ctl/2")
	env, err := sw.Seal("dom0/ctl/1", []byte("ack"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl2.Open(env); !errors.Is(err, ErrBadTag) {
		t.Fatalf("envelope for ctl/1 opened at ctl/2: %v", err)
	}
	if _, err := ctl1.Open(env); err != nil {
		t.Fatalf("Open at the addressee: %v", err)
	}
}

func TestOpenRejectsReflection(t *testing.T) {
	// The key is symmetric, the tag is not: an envelope bounced back to its
	// maker under the receiver's name does not open.
	dir := NewDirectory()
	_, sw := party(t, dir, "dom0/sw/tor-1")
	party(t, dir, "dom0/ctl/1")
	env, err := sw.Seal("dom0/ctl/1", []byte("ack"))
	if err != nil {
		t.Fatal(err)
	}
	env.From = "dom0/ctl/1"
	if _, err := sw.Open(env); !errors.Is(err, ErrBadTag) {
		t.Fatalf("reflected envelope: expected ErrBadTag, got %v", err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	dir := NewDirectory()
	kp, _ := NewKeyPair(rand.Reader, "x")
	if err := dir.Register(kp.ID, kp.Public); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	if err := dir.Register(kp.ID, kp.Public); !errors.Is(err, ErrDuplicateIdentity) {
		t.Fatalf("expected ErrDuplicateIdentity, got %v", err)
	}
}

func TestSignVerify(t *testing.T) {
	dir := NewDirectory()
	kp, _ := NewKeyPair(rand.Reader, "dom0/ctl/1")
	dir.MustRegister(kp)
	sig := kp.Sign([]byte("release"))
	if err := dir.Verify(kp.ID, []byte("release"), sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := dir.Verify(kp.ID, []byte("forged"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("expected ErrBadSignature, got %v", err)
	}
	if err := dir.Verify("nobody", []byte("release"), sig); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("expected ErrUnknownIdentity, got %v", err)
	}
}

// TestRemove: a removed identity stops opening on the very next envelope,
// cached key or not, and one registered again under another key is derived
// afresh.
func TestRemove(t *testing.T) {
	dir := NewDirectory()
	_, ctl := party(t, dir, "dom0/ctl/1")
	old, oldLink := party(t, dir, "dom0/ctl/3")
	if len(dir.keys) != 2 {
		t.Fatalf("Len = %d, want 2", len(dir.keys))
	}
	env, err := oldLink.Seal("dom0/ctl/1", []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Open(env); err != nil {
		t.Fatalf("Open before removal: %v", err)
	}
	dir.Remove(old.ID)
	if _, err := ctl.Open(env); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("expected ErrUnknownIdentity after removal, got %v", err)
	}
	if _, err := ctl.Seal(old.ID, []byte("m")); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("seal to a removed peer: expected ErrUnknownIdentity, got %v", err)
	}

	_, fresh := party(t, dir, old.ID)
	if _, err := ctl.Open(env); !errors.Is(err, ErrBadTag) {
		t.Fatalf("envelope under the retired key: expected ErrBadTag, got %v", err)
	}
	env, err = fresh.Seal("dom0/ctl/1", []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Open(env); err != nil {
		t.Fatalf("Open under the new key: %v", err)
	}
}

// TestLinkKeyConversion cross-checks the Ed25519 → X25519 mapping: the
// u-coordinate computed from a public key is the X25519 public key of the
// scalar derived from its seed, and both ends of a pair derive one key.
func TestLinkKeyConversion(t *testing.T) {
	dir := NewDirectory()
	for i := 0; i < 1000; i++ {
		a, err := NewKeyPair(rand.Reader, "a")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewKeyPair(rand.Reader, "b")
		h := sha512.Sum512(a.Seed())
		priv, err := ecdh.X25519().NewPrivateKey(h[:32])
		if err != nil {
			t.Fatal(err)
		}
		u, err := montgomeryU(a.Public)
		if err != nil {
			t.Fatalf("seed %x: %v", a.Seed(), err)
		}
		if !bytes.Equal(u, priv.PublicKey().Bytes()) {
			t.Fatalf("seed %x: u = %x, X25519 public key = %x", a.Seed(), u, priv.PublicKey().Bytes())
		}
		ka, err := NewLink(a, dir).pairwiseKey(b.Public)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := NewLink(b, dir).pairwiseKey(a.Public)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ka, kb) {
			t.Fatalf("seeds %x / %x: the two ends derive different keys", a.Seed(), b.Seed())
		}
	}
}

// TestLinkRefusesDegenerateKeys: the identity, the seven other points of
// small order and non-canonical encodings are registered keys no link will
// talk to — their shared secret would be known to everyone.
func TestLinkRefusesDegenerateKeys(t *testing.T) {
	for name, enc := range map[string]string{
		"identity":          "0100000000000000000000000000000000000000000000000000000000000000",
		"identity, x sign":  "0100000000000000000000000000000000000000000000000000000000000080",
		"order 2":           "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"order 4":           "0000000000000000000000000000000000000000000000000000000000000000",
		"order 4, x sign":   "0000000000000000000000000000000000000000000000000000000000000080",
		"order 8":           "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
		"order 8, x sign":   "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
		"order 8 (2)":       "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
		"order 8 (2), sign": "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
		"y = p":             "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"y = p + 1":         "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"y = 2^255 - 1":     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"short":             "0100",
	} {
		pub, err := hex.DecodeString(enc)
		if err != nil {
			t.Fatal(err)
		}
		dir := NewDirectory()
		_, ctl := party(t, dir, "dom0/ctl/1")
		if err := dir.Register("weak", ed25519.PublicKey(pub)); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.Seal("weak", []byte("m")); !errors.Is(err, ErrBadPeerKey) {
			t.Errorf("%s: seal: expected ErrBadPeerKey, got %v", name, err)
		}
		env := Envelope{From: "weak", Payload: []byte("m"), Tag: make([]byte, TagSize)}
		if _, err := ctl.Open(env); !errors.Is(err, ErrBadPeerKey) {
			t.Errorf("%s: open: expected ErrBadPeerKey, got %v", name, err)
		}
	}
}

// TestLinkAllocs pins the hot path: sealing allocates the tag and nothing
// else, opening allocates nothing.
func TestLinkAllocs(t *testing.T) {
	dir := NewDirectory()
	_, sw := party(t, dir, "dom0/sw/tor-1")
	_, ctl := party(t, dir, "dom0/ctl/1")
	payload := []byte(`{"update_id":{"origin":"d0-p0-tor1#7/d0","seq":3},"switch":"dom0/sw/tor-1","applied":true}`)
	env, err := sw.Seal("dom0/ctl/1", payload)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := sw.Seal("dom0/ctl/1", payload); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Seal allocates %v times per call, want <= 1", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := ctl.Open(env); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Open allocates %v times per call, want 0", n)
	}
}

// TestConcurrentAccess: the directory is shared by every node's link; each
// link is used from its own goroutine while identities come and go.
func TestConcurrentAccess(t *testing.T) {
	dir := NewDirectory()
	_, sender := party(t, dir, "shared")
	const readers = 8
	done := make(chan struct{})
	for i := 0; i < readers; i++ {
		id := Identity(fmt.Sprintf("reader/%d", i))
		_, link := party(t, dir, id)
		env, err := sender.Seal(id, []byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				if _, err := link.Open(env); err != nil {
					t.Errorf("Open: %v", err)
					return
				}
			}
		}()
	}
	for j := 0; j < 100; j++ {
		kp, _ := NewKeyPair(rand.Reader, "transient")
		dir.MustRegister(kp)
		dir.Remove(kp.ID)
	}
	for i := 0; i < readers; i++ {
		<-done
	}
}

// FuzzLinkOpen throws arbitrary senders, payloads and tags at one end of a
// two-party directory: Open never panics and accepts nothing but the tag the
// claimed sender's own link makes for this addressee.
func FuzzLinkOpen(f *testing.F) {
	dir := NewDirectory()
	_, alice := party(f, dir, "alice")
	_, bob := party(f, dir, "bob")
	links := map[Identity]*Link{"alice": alice, "bob": bob}
	good, err := alice.Seal("bob", []byte("ack"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add("alice", []byte("ack"), good.Tag)
	f.Add("alice", []byte("ack"), good.Tag[:TagSize-1])
	f.Add("alice", []byte("acl"), good.Tag)
	f.Add("bob", []byte("ack"), good.Tag)
	f.Add("mallory", []byte("ack"), good.Tag)
	f.Add("", []byte(nil), []byte(nil))
	f.Fuzz(func(t *testing.T, from string, payload, tag []byte) {
		opened, err := bob.Open(Envelope{From: Identity(from), Payload: payload, Tag: tag})
		if err != nil {
			return
		}
		sender, ok := links[Identity(from)]
		if !ok {
			t.Fatalf("opened an envelope from unregistered %q", from)
		}
		want, err := sender.Seal("bob", payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tag, want.Tag) || !bytes.Equal(opened, payload) {
			t.Fatalf("accepted tag %x from %q over %q; the sender's link makes %x", tag, from, payload, want.Tag)
		}
	})
}

var benchPayload = []byte("packet-in: unroutable dst=h9 src=h2 size=1500")

func BenchmarkLinkSeal(b *testing.B) {
	dir := NewDirectory()
	_, sw := party(b, dir, "bench/sw")
	party(b, dir, "bench/ctl")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Seal("bench/ctl", benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinkOpen(b *testing.B) {
	dir := NewDirectory()
	_, sw := party(b, dir, "bench/sw")
	_, ctl := party(b, dir, "bench/ctl")
	env, err := sw.Seal("bench/ctl", benchPayload)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.Open(env); err != nil {
			b.Fatal(err)
		}
	}
}
