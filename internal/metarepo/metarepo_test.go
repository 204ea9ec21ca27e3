package metarepo

import (
	"bytes"
	"crypto/rand"
	"testing"

	"cicero/internal/protocol"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/dkg"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/pki"
)

// fixture holds a 4-controller metadata universe.
type fixture struct {
	scheme *bls.Scheme
	gk     *bls.GroupKey
	shares []bls.KeyShare
	keys   []*pki.KeyPair
	now    int64
}

const ttl = int64(1e12) // 1000s document TTL
const tsTTL = int64(1e9)

func newFixture(t testing.TB) *fixture {
	t.Helper()
	scheme := bls.NewScheme(pairing.Fast254())
	gk, shares, err := dkg.Run(scheme, rand.Reader, 2, 4)
	if err != nil {
		t.Fatalf("dkg: %v", err)
	}
	f := &fixture{scheme: scheme, gk: gk, shares: shares, now: 1000}
	for i := 0; i < 4; i++ {
		kp, err := pki.NewKeyPair(rand.Reader, pki.Identity([]string{"c1", "c2", "c3", "c4"}[i]))
		if err != nil {
			t.Fatalf("keypair: %v", err)
		}
		f.keys = append(f.keys, kp)
	}
	return f
}

func (f *fixture) store() *Store {
	return NewStore(f.scheme, f.gk.PK, func() int64 { return f.now })
}

// genesis returns a signed root + consistent v1 set.
func (f *fixture) genesis(t testing.TB) (protocol.MetaEnvelope, []protocol.MetaEnvelope) {
	t.Helper()
	root := GenesisRoot(2, f.keys, f.now, ttl)
	rootEnv, err := SignRootDirect(f.scheme, f.gk, f.shares, root)
	if err != nil {
		t.Fatalf("sign root: %v", err)
	}
	tg, sn, ts := BuildSet(Policy{Phase: 1, Quorum: 2}, 1, f.now, ttl, tsTTL)
	return rootEnv, SignSet(tg, sn, ts, f.keys[:2])
}

func TestAdoptGenesisAndUpdate(t *testing.T) {
	f := newFixture(t)
	rootEnv, set := f.genesis(t)
	s := f.store()
	if err := s.Apply(rootEnv); err != nil {
		t.Fatalf("root: %v", err)
	}
	if err := s.ApplySet(set); err != nil {
		t.Fatalf("set v1: %v", err)
	}
	r, tgv, snv, tsv := s.Versions()
	if r != 1 || tgv != 1 || snv != 1 || tsv != 1 {
		t.Fatalf("versions = %d/%d/%d/%d, want 1/1/1/1", r, tgv, snv, tsv)
	}
	if !s.Fresh(f.now + tsTTL/2) {
		t.Fatalf("store not fresh inside timestamp TTL")
	}
	if s.Fresh(f.now + tsTTL + 1) {
		t.Fatalf("store fresh past timestamp expiry")
	}
	// v2 update adopts.
	tg2, sn2, ts2 := BuildSet(Policy{Phase: 1, Quorum: 2, Aggregator: "ctl-2"}, 2, f.now+10, ttl, tsTTL)
	if err := s.ApplySet(SignSet(tg2, sn2, ts2, f.keys[1:3])); err != nil {
		t.Fatalf("set v2: %v", err)
	}
	if got := s.PolicyTargets().Policy.Aggregator; got != "ctl-2" {
		t.Fatalf("policy aggregator = %q, want ctl-2", got)
	}
	// Replaying v1 after v2 is rollback, per role.
	for _, env := range set {
		err := s.Apply(env)
		if Reason(err) != RejectRollback {
			t.Fatalf("replay %s: got %v, want rollback", env.Role, err)
		}
	}
	if s.Rejections()[RejectRollback] != 3 {
		t.Fatalf("rollback counter = %v", s.Rejections())
	}
}

func TestRejectsMixAndMatch(t *testing.T) {
	f := newFixture(t)
	rootEnv, set1 := f.genesis(t)
	tg2, sn2, ts2 := BuildSet(Policy{Phase: 1, Quorum: 2, Aggregator: "ctl-1"}, 2, f.now, ttl, tsTTL)
	set2 := SignSet(tg2, sn2, ts2, f.keys[:2])

	s := f.store()
	if err := s.Apply(rootEnv); err != nil {
		t.Fatalf("root: %v", err)
	}
	// Splice: v2 timestamp + v2 snapshot, but v1 targets.
	spliced := []protocol.MetaEnvelope{set2[2], set2[1], set1[0]}
	err := s.ApplySet(spliced)
	if Reason(err) != RejectMixMatch {
		t.Fatalf("spliced set: got %v, want mix-match", err)
	}
	// Targets must not have been adopted.
	if s.PolicyTargets() != nil {
		t.Fatalf("spliced targets adopted")
	}
	// Snapshot offered without its bound timestamp also fails closed.
	s2 := f.store()
	if err := s2.Apply(rootEnv); err != nil {
		t.Fatalf("root: %v", err)
	}
	if err := s2.Apply(set1[1]); Reason(err) != RejectMixMatch {
		t.Fatalf("snapshot before timestamp: got %v, want mix-match", err)
	}
}

func TestRejectsWrongRoleAndForeignKeys(t *testing.T) {
	f := newFixture(t)
	rootEnv, set := f.genesis(t)
	s := f.store()
	if err := s.Apply(rootEnv); err != nil {
		t.Fatalf("root: %v", err)
	}
	// A signature computed for the snapshot role must not count for
	// targets even though the same keys serve both roles.
	tsEnv := set[2]
	forged := protocol.MetaEnvelope{Role: protocol.MetaRoleSnapshot, Signed: tsEnv.Signed, Sigs: tsEnv.Sigs}
	if err := s.Apply(forged); Reason(err) == "" {
		t.Fatalf("role-transplanted envelope accepted")
	}
	// An outsider key (never delegated) cannot mint a timestamp.
	outsider, err := pki.NewKeyPair(rand.Reader, "intruder")
	if err != nil {
		t.Fatal(err)
	}
	ts := Timestamp{Version: 9, IssuedNS: f.now, ExpiresNS: f.now + tsTTL, SnapshotVersion: 9}
	env := protocol.MetaEnvelope{Role: protocol.MetaRoleTimestamp, Signed: Encode(ts)}
	env.Sigs = []protocol.MetaSig{SignRole(outsider, protocol.MetaRoleTimestamp, env.Signed)}
	if err := s.Apply(env); Reason(err) != RejectWrongRole {
		t.Fatalf("outsider timestamp: got %v, want wrong-role", err)
	}
}

func TestRejectsExpiredAndUnrootedDocs(t *testing.T) {
	f := newFixture(t)
	rootEnv, set := f.genesis(t)
	s := f.store()
	// Delegated docs before any root fail closed.
	if err := s.Apply(set[2]); Reason(err) != RejectNoRoot {
		t.Fatalf("timestamp before root: got %v, want no-root", err)
	}
	if err := s.Apply(rootEnv); err != nil {
		t.Fatalf("root: %v", err)
	}
	// Freeze: a valid-but-expired timestamp is rejected.
	f.now += tsTTL + 1
	if err := s.Apply(set[2]); Reason(err) != RejectExpired {
		t.Fatalf("expired timestamp: got %v, want expired", err)
	}
}

func TestRootRotationRetiresKeys(t *testing.T) {
	f := newFixture(t)
	rootEnv, set := f.genesis(t)
	s := f.store()
	if err := s.Apply(rootEnv); err != nil {
		t.Fatalf("root: %v", err)
	}
	if err := s.ApplySet(set); err != nil {
		t.Fatalf("set: %v", err)
	}
	// Root v2 drops key c4.
	var keys []RoleKey
	for _, kp := range f.keys[:3] {
		keys = append(keys, RoleKey{KeyID: string(kp.ID), Pub: append([]byte(nil), kp.Public...)})
	}
	root2 := RootAt(2, 2, keys, f.now+1, ttl)
	root2Env, err := SignRootDirect(f.scheme, f.gk, f.shares, root2)
	if err != nil {
		t.Fatalf("sign root2: %v", err)
	}
	if err := s.Apply(root2Env); err != nil {
		t.Fatalf("root2: %v", err)
	}
	if !s.retired["c4"] {
		t.Fatalf("c4 not marked retired after rotation")
	}
	// A post-rotation document signed by the retired key is rejected as
	// retired-key, not generic garbage.
	ts2 := Timestamp{Version: 2, IssuedNS: f.now, ExpiresNS: f.now + tsTTL,
		SnapshotVersion: 1, SnapshotDigest: Digest(set[1].Signed)}
	env := protocol.MetaEnvelope{Role: protocol.MetaRoleTimestamp, Signed: Encode(ts2)}
	env.Sigs = []protocol.MetaSig{SignRole(f.keys[3], protocol.MetaRoleTimestamp, env.Signed)}
	if err := s.Apply(env); Reason(err) != RejectRetiredKey {
		t.Fatalf("retired-key timestamp: got %v, want retired-key", err)
	}
	// Root rollback to v1 rejected.
	if err := s.Apply(rootEnv); Reason(err) != RejectRollback {
		t.Fatalf("root rollback: got %v, want rollback", err)
	}
}

func TestVerifyBypassAdoptsAttacks(t *testing.T) {
	f := newFixture(t)
	rootEnv, set := f.genesis(t)
	s := f.store()
	s.SetVerifyBypass(true)
	if err := s.Apply(rootEnv); err != nil {
		t.Fatalf("root under bypass: %v", err)
	}
	// v2 then a v1 rollback: a bypassed store swallows it.
	tg2, sn2, ts2 := BuildSet(Policy{Phase: 1, Quorum: 2}, 2, f.now, ttl, tsTTL)
	if err := s.ApplySet(SignSet(tg2, sn2, ts2, f.keys[:2])); err != nil {
		t.Fatalf("v2 under bypass: %v", err)
	}
	if err := s.ApplySet(set); err != nil {
		t.Fatalf("bypassed store rejected rollback: %v", err)
	}
	if _, tgv, _, _ := s.Versions(); tgv != 1 {
		t.Fatalf("bypassed store did not adopt the rollback (targets v%d)", tgv)
	}
	if !s.Fresh(f.now + 100*tsTTL) {
		t.Fatalf("bypassed store should lie about freshness")
	}
}

func TestShareCollectorRejectsRetiredShares(t *testing.T) {
	f := newFixture(t)
	root := GenesisRoot(2, f.keys, f.now, ttl)
	signed := Encode(root)

	// Reshare: same public key, fresh commitments and shares.
	newGK, newShares, err := dkg.RunReshare(f.scheme, rand.Reader, f.gk, f.shares, 2, 4)
	if err != nil {
		t.Fatalf("reshare: %v", err)
	}
	if !newGK.PK.Point.Equal(f.gk.PK.Point) {
		t.Fatalf("reshare changed the public key")
	}
	col := NewShareCollector(f.scheme, newGK, root.Version, signed)

	// An old (pre-reshare) share signature is rejected.
	oldSig := SignRootShare(f.scheme, f.shares[0], signed)
	_, done, err := col.Add(protocol.MsgMetaShare{
		Version: root.Version, Signed: signed,
		ShareIndex: oldSig.Index, Share: f.scheme.Params.PointBytes(oldSig.Point),
	})
	if err == nil || done {
		t.Fatalf("retired share accepted (done=%v err=%v)", done, err)
	}
	if col.StaleRejected != 1 {
		t.Fatalf("StaleRejected = %d, want 1", col.StaleRejected)
	}

	// Fresh shares complete the envelope and it verifies in a store.
	var env protocol.MetaEnvelope
	for i := 0; i < 2; i++ {
		sh := SignRootShare(f.scheme, newShares[i], signed)
		env, done, err = col.Add(protocol.MsgMetaShare{
			Version: root.Version, Signed: signed,
			ShareIndex: sh.Index, Share: f.scheme.Params.PointBytes(sh.Point),
		})
		if err != nil {
			t.Fatalf("fresh share %d: %v", i, err)
		}
	}
	if !done {
		t.Fatalf("collector did not complete at quorum")
	}
	s := f.store()
	if err := s.Apply(env); err != nil {
		t.Fatalf("collected root rejected: %v", err)
	}
}

func TestSigCollectorAssemblesEnvelope(t *testing.T) {
	f := newFixture(t)
	root := GenesisRoot(2, f.keys, f.now, ttl)
	tg, _, _ := BuildSet(Policy{Phase: 1}, 1, f.now, ttl, tsTTL)
	signed := Encode(tg)
	col := NewSigCollector(protocol.MetaRoleTargets, tg.Version, signed, root.Roles[protocol.MetaRoleTargets])

	// Outsider contribution rejected.
	outsider, _ := pki.NewKeyPair(rand.Reader, "intruder")
	sig := SignRole(outsider, protocol.MetaRoleTargets, signed)
	if _, _, err := col.Add(protocol.MsgMetaSig{
		Role: protocol.MetaRoleTargets, Version: tg.Version, Digest: Digest(signed),
		Signed: signed, KeyID: sig.KeyID, Sig: sig.Sig,
	}); err == nil {
		t.Fatalf("outsider signature accepted")
	}
	if col.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", col.Rejected)
	}
	var env protocol.MetaEnvelope
	var done bool
	for _, kp := range f.keys[:2] {
		s := SignRole(kp, protocol.MetaRoleTargets, signed)
		var err error
		env, done, err = col.Add(protocol.MsgMetaSig{
			Role: protocol.MetaRoleTargets, Version: tg.Version, Digest: Digest(signed),
			Signed: signed, KeyID: s.KeyID, Sig: s.Sig,
		})
		if err != nil {
			t.Fatalf("add %s: %v", kp.ID, err)
		}
	}
	if !done || len(env.Sigs) != 2 {
		t.Fatalf("collector done=%v sigs=%d", done, len(env.Sigs))
	}
}

func TestGenesisFileRoundTrip(t *testing.T) {
	f := newFixture(t)
	rootEnv, _ := f.genesis(t)
	var buf bytes.Buffer
	if err := EncodeGenesis(&buf, f.scheme, f.gk, rootEnv); err != nil {
		t.Fatalf("encode: %v", err)
	}
	gk, env, err := DecodeGenesis(&buf, f.scheme)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !gk.PK.Point.Equal(f.gk.PK.Point) || gk.T != f.gk.T {
		t.Fatalf("group key did not round-trip")
	}
	s := NewStore(f.scheme, gk.PK, func() int64 { return f.now })
	if err := s.Apply(env); err != nil {
		t.Fatalf("decoded genesis root rejected: %v", err)
	}
	// A bit flip in the signed bytes must fail verification.
	bad := env
	bad.Signed = append([]byte(nil), env.Signed...)
	bad.Signed[len(bad.Signed)/2] ^= 1
	if err := NewStore(f.scheme, gk.PK, func() int64 { return f.now }).Apply(bad); err == nil {
		t.Fatalf("tampered genesis root accepted")
	}
}
