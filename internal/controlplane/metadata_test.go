package controlplane

import (
	"crypto/rand"
	"testing"
	"time"

	"cicero/internal/dataplane"
	"cicero/internal/fabric"
	"cicero/internal/metarepo"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/routing"
	"cicero/internal/scheduler"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/dkg"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/pki"
)

// metaCluster is a full Cicero control plane with the metadata plane
// enabled and real data-plane switches (each with its own trusted
// store).
type metaCluster struct {
	sim      *simnet.Simulator
	net      *simnet.Network
	dir      *pki.Directory
	scheme   *bls.Scheme
	gk       *bls.GroupKey
	shares   []bls.KeyShare // genesis shares, saved for retired-share attacks
	keyPairs []*pki.KeyPair
	members  []pki.Identity
	ctls     []*Controller
	sws      map[string]*dataplane.Switch
	rootEnv  protocol.MetaEnvelope
}

func buildMetaCluster(t *testing.T, n int) *metaCluster {
	t.Helper()
	sim := simnet.NewSimulator(7)
	net := simnet.NewNetwork(sim, 200*time.Microsecond)
	dir := pki.NewDirectory()
	g := lineGraph(t)
	scheme := bls.NewScheme(pairing.Fast254())
	quorum := CiceroQuorum(n)
	gk, shares, err := dkg.Run(scheme, rand.Reader, quorum, n)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]pki.Identity, n)
	keyPairs := make([]*pki.KeyPair, n)
	for i := range members {
		members[i] = pki.Identity(string(rune('a'+i)) + "-ctl")
		kp, _ := pki.NewKeyPair(rand.Reader, members[i])
		dir.MustRegister(kp)
		keyPairs[i] = kp
	}
	root := metarepo.GenesisRoot(quorum, keyPairs, int64(net.Now()), int64(time.Hour))
	rootEnv, err := metarepo.SignRootDirect(scheme, gk, shares, root)
	if err != nil {
		t.Fatal(err)
	}
	cl := &metaCluster{
		sim: sim, net: net, dir: dir, scheme: scheme, gk: gk, shares: shares,
		keyPairs: keyPairs, members: members, sws: make(map[string]*dataplane.Switch),
		rootEnv: rootEnv,
	}
	switchIDs := []string{"s1", "s2", "s3"}
	for _, id := range switchIDs {
		swKeys, _ := pki.NewKeyPair(rand.Reader, pki.Identity(id))
		dir.MustRegister(swKeys)
		sw, err := dataplane.New(dataplane.Config{
			ID: id, Net: net, Mode: dataplane.ModeThreshold,
			Keys: swKeys, Directory: dir,
			Scheme: scheme, GroupKey: gk, Quorum: quorum,
			Metadata: &dataplane.MetadataConfig{Genesis: rootEnv},
		})
		if err != nil {
			t.Fatalf("switch %s: %v", id, err)
		}
		sw.Bootstrap(members, "", quorum)
		cl.sws[id] = sw
	}
	for i, id := range members {
		c, err := New(Config{
			ID: id, Members: members, Net: net, Keys: keyPairs[i], Directory: dir,
			Protocol: ProtoCicero, Scheme: scheme, GroupKey: gk, Share: shares[i],
			App: &routing.ShortestPath{Graph: g}, Sched: scheduler.ReversePath{},
			Switches: switchIDs, Bootstrap: i == 0,
			ViewChangeTimeout: 15 * time.Millisecond,
			Metadata: &MetadataConfig{
				Genesis: rootEnv, TTL: time.Hour, TimestampTTL: 5 * time.Second,
			},
		})
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		cl.ctls = append(cl.ctls, c)
	}
	return cl
}

func (cl *metaCluster) run(t *testing.T) {
	t.Helper()
	if _, err := cl.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMetadataPublishAdoptsEverywhere: a policy published by any member
// is ordered, quorum-signed, assembled by the leader, and adopted by
// every controller and switch store with a live freshness proof.
func TestMetadataPublishAdoptsEverywhere(t *testing.T) {
	cl := buildMetaCluster(t, 4)
	cl.ctls[2].PublishPolicy(metarepo.Policy{
		Quorum: CiceroQuorum(4),
	})
	cl.run(t)

	for _, c := range cl.ctls {
		_, tg, sn, ts := c.MetaStore().Versions()
		if tg != 1 || sn != 1 || ts < 1 {
			t.Fatalf("%s: versions targets=%d snapshot=%d timestamp=%d, want 1/1/>=1", c.ID(), tg, sn, ts)
		}
	}
	now := int64(cl.net.Now())
	for id, sw := range cl.sws {
		st := sw.MetaStore()
		_, tg, _, _ := st.Versions()
		if tg != 1 {
			t.Fatalf("switch %s: targets v%d, want 1", id, tg)
		}
		if !st.Fresh(now) {
			t.Fatalf("switch %s: store not fresh after adoption", id)
		}
		p := st.PolicyTargets()
		if p.Policy.Quorum != CiceroQuorum(4) {
			t.Fatalf("switch %s: wrong policy payload %+v", id, p.Policy)
		}
	}
	if cl.ctls[0].MetaPublished != 1 {
		t.Fatalf("leader MetaPublished = %d, want 1", cl.ctls[0].MetaPublished)
	}
	// Replaying the adopted set is idempotent; replaying it after a newer
	// set lands is a rollback. Second publication supersedes the first.
	cl.ctls[1].PublishPolicy(metarepo.Policy{Quorum: CiceroQuorum(4)})
	cl.run(t)
	for id, sw := range cl.sws {
		_, tg, _, _ := sw.MetaStore().Versions()
		if tg != 2 {
			t.Fatalf("switch %s: targets v%d after second publication, want 2", id, tg)
		}
	}
}

// TestMetadataTimestampRefreshKeepsFresh: leader refreshes advance the
// freshness proof without touching targets/snapshot, and a store that
// stops hearing refreshes goes stale (the freeze defense).
func TestMetadataTimestampRefreshKeepsFresh(t *testing.T) {
	cl := buildMetaCluster(t, 4)
	cl.ctls[0].PublishPolicy(metarepo.Policy{Quorum: 2})
	cl.run(t)

	sw := cl.sws["s1"]
	_, _, _, ts1 := sw.MetaStore().Versions()
	cl.ctls[0].RefreshMetaTimestamp()
	cl.run(t)
	_, tg, _, ts2 := sw.MetaStore().Versions()
	if ts2 != ts1+1 {
		t.Fatalf("timestamp version %d after refresh, want %d", ts2, ts1+1)
	}
	if tg != 1 {
		t.Fatalf("refresh touched targets (v%d)", tg)
	}
	if cl.ctls[0].MetaRefreshes != 1 {
		t.Fatalf("MetaRefreshes = %d, want 1", cl.ctls[0].MetaRefreshes)
	}
	// Non-leader refuses to mint.
	cl.ctls[1].RefreshMetaTimestamp()
	if cl.ctls[1].MetaRefreshes != 0 {
		t.Fatal("non-leader minted a timestamp refresh")
	}
	// Past the TTL with no refresh the proof is stale.
	doc := sw.MetaStore().TimestampDoc()
	if sw.MetaStore().Fresh(doc.ExpiresNS + 1) {
		t.Fatal("store claims freshness past the proof's expiry")
	}
}

// TestMetadataReshareUnderLoad (the proactive-resharing coverage): a
// member is removed mid-campaign while flow events are in flight. The
// reshare installs fresh shares, the leader rotates the root, the
// removed member's role key retires everywhere, metadata signed by it
// is rejected, a BLS share minted from a pre-reshare sharing is
// rejected by the root collector — and the in-flight updates still
// complete.
func TestMetadataReshareUnderLoad(t *testing.T) {
	n := 7
	cl := buildMetaCluster(t, n)
	cl.ctls[0].PublishPolicy(metarepo.Policy{Quorum: CiceroQuorum(n)})
	cl.run(t)

	// In-flight load: several flow events, then the removal, then more.
	inject := func(seq uint64) {
		cl.ctls[0].receiveEvent(protocol.Event{
			ID:   openflow.MsgID{Origin: "load", Seq: seq},
			Kind: protocol.EventFlowRequest, Src: "h1", Dst: "h2",
		})
	}
	for i := uint64(1); i <= 3; i++ {
		inject(i)
	}
	removed := cl.members[n-1]
	if err := cl.ctls[0].RequestRemoveController(removed); err != nil {
		t.Fatal(err)
	}
	for i := uint64(4); i <= 6; i++ {
		inject(i)
	}
	cl.run(t)

	leader := cl.ctls[0]
	if leader.Reshares != 1 {
		t.Fatalf("leader reshares = %d, want 1", leader.Reshares)
	}
	// The rotated root, adopted on every store, no longer delegates to the
	// removed member's key.
	for _, c := range cl.ctls[:n-1] {
		root := c.MetaStore().Root()
		if root == nil || root.Version != 2 {
			t.Fatalf("%s: root %+v, want v2", c.ID(), root)
		}
		for role, d := range root.Roles {
			if d.Key(string(removed)) != nil {
				t.Fatalf("%s: removed member's key still delegated for %s", c.ID(), role)
			}
		}
	}
	sw := cl.sws["s1"]
	if root := sw.MetaStore().Root(); root == nil || root.Version != 2 {
		t.Fatalf("switch root %+v, want v2", root)
	}
	// The post-change policy (targets v2) reached the switches.
	tg := sw.MetaStore().PolicyTargets()
	if tg == nil || tg.Policy.Phase != leader.Phase() || len(tg.Policy.Members) != n-1 {
		t.Fatalf("switch policy targets %+v, want phase %d with %d members", tg, leader.Phase(), n-1)
	}
	// In-flight updates completed despite the reshare.
	if leader.AcksReceived == 0 || cl.sws["s2"].UpdatesApplied == 0 {
		t.Fatalf("load did not complete: acks=%d applied=%d", leader.AcksReceived, cl.sws["s2"].UpdatesApplied)
	}

	// Attack 1: new metadata signed by the retired role key.
	doc := metarepo.Targets{Header: metarepo.Header{Version: tg.Version + 1,
		ExpiresNS: int64(cl.net.Now()) + int64(time.Hour)}}
	signed := metarepo.Encode(doc)
	env := protocol.MetaEnvelope{Role: protocol.MetaRoleTargets, Signed: signed,
		Sigs: []protocol.MetaSig{metarepo.SignRole(cl.keyPairs[n-1], protocol.MetaRoleTargets, signed)}}
	err := sw.MetaStore().Apply(env)
	if metarepo.Reason(err) != metarepo.RejectRetiredKey {
		t.Fatalf("retired-key targets accepted or misclassified: %v", err)
	}

	// Attack 2: a root share minted from the pre-reshare sharing. The
	// leader's collector verifies shares against the fresh commitments,
	// so the retired share is rejected even though the group public key
	// never changed.
	cur := leader.MetaStore().Root()
	var keys []metarepo.RoleKey
	for _, m := range leader.Members() {
		pub, _ := cl.dir.Lookup(m)
		keys = append(keys, metarepo.RoleKey{KeyID: string(m), Pub: append([]byte(nil), pub...)})
	}
	nextRoot := metarepo.RootAt(cur.Version+1, leader.Quorum(), keys,
		int64(cl.net.Now()), int64(time.Hour))
	nextSigned := metarepo.Encode(nextRoot)
	leader.RotateRoot()
	staleShare := cl.scheme.SignShare(cl.shares[2],
		protocol.MetaSigningBytes(protocol.MetaRoleRoot, nextSigned))
	leader.handleMetaShare(protocol.MsgMetaShare{
		Version: nextRoot.Version, Signed: nextSigned,
		ShareIndex: staleShare.Index,
		Share:      cl.scheme.Params.PointBytes(staleShare.Point),
	})
	if leader.MetaStaleShares == 0 {
		t.Fatal("pre-reshare root share was not rejected")
	}
	cl.run(t)
	// Fresh post-reshare shares still complete the rotation.
	if root := leader.MetaStore().Root(); root == nil || root.Version != cur.Version+1 {
		t.Fatalf("root rotation with fresh shares failed: %+v", root)
	}
}

// TestGapStallSelfRecovery (regression): a replica wedged behind a
// garbage-collected gap — committed slots piling up above a frozen
// delivery horizon — starts its own authenticated recovery, with no
// supervisor NudgeRecover anywhere. Core's TestGapStallSelfRecoveryInProc
// is the same on a wall clock.
func TestGapStallSelfRecovery(t *testing.T) {
	cl := buildFDCluster(t, 4, nil)
	victim := cl.ctls[3]
	victimID := simnet.NodeID(cl.members[3])
	rest := []simnet.NodeID{simnet.NodeID(cl.members[0]), simnet.NodeID(cl.members[1]),
		simnet.NodeID(cl.members[2]), "s1"}
	for _, m := range rest {
		cl.net.Partition(victimID, m)
	}

	// Drive the live trio far enough that the victim's gap slots are
	// garbage-collected (gcKeep slots past delivery).
	inject := func(seq uint64) {
		cl.ctls[0].receiveEvent(protocol.Event{
			ID:   openflow.MsgID{Origin: "wedge", Seq: seq},
			Kind: protocol.EventFlowRequest, Src: "h1", Dst: "h2",
		})
	}
	total := uint64(140)
	for i := uint64(1); i <= total; i++ {
		inject(i)
	}
	if _, err := cl.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, last := cl.ctls[0].BroadcastCoords(); last < 130 {
		t.Fatalf("trio delivered only %d slots; gap not past GC horizon", last)
	}
	if _, last := victim.BroadcastCoords(); last != 0 {
		t.Fatalf("victim delivered %d slots while partitioned", last)
	}

	// Heal and send fresh traffic: the victim now sees slots commit far
	// above its frozen horizon, and the missing prefix is gone for good.
	for _, m := range rest {
		cl.net.Heal(victimID, m)
	}
	for i := total + 1; i <= total+4; i++ {
		inject(i)
	}
	if _, err := cl.sim.Run(); err != nil {
		t.Fatal(err)
	}

	if victim.GapRecoveries == 0 {
		t.Fatal("frozen-horizon watchdog never fired")
	}
	if !victim.Recovered() {
		t.Fatal("victim did not complete recovery")
	}
	_, want := cl.ctls[0].BroadcastCoords()
	if _, got := victim.BroadcastCoords(); got != want {
		t.Fatalf("victim horizon %d after recovery, leader at %d", got, want)
	}
	if victim.EventsDelivered != cl.ctls[0].EventsDelivered {
		t.Fatalf("victim delivered %d events, leader %d",
			victim.EventsDelivered, cl.ctls[0].EventsDelivered)
	}
}

// TestMetadataConfigGate: a config push whose membership contradicts
// the signed policy for the same phase is rejected by the switch.
func TestMetadataConfigGate(t *testing.T) {
	cl := buildMetaCluster(t, 4)
	names := make([]string, len(cl.members))
	for i, m := range cl.members {
		names[i] = string(m)
	}
	cl.ctls[0].PublishPolicy(metarepo.Policy{Phase: 0, Members: names, Quorum: 2})
	cl.run(t)

	sw := cl.sws["s1"]
	forged := protocol.MsgConfig{
		Phase:  0,
		Quorum: 1,
		Members: []pki.Identity{
			"evil-1", "evil-2", "evil-3", "evil-4",
		},
	}
	// Deliver directly (CryptoReal is off, so the BLS config signature is
	// not what stops it — the metadata gate is).
	sw.HandleMessage("a-ctl", forged)
	if sw.MetaConfigRejects != 1 {
		t.Fatalf("MetaConfigRejects = %d, want 1", sw.MetaConfigRejects)
	}
	// The switch still answers to the members it was provisioned with: its
	// next table miss reaches every one of them.
	received := make([]uint64, len(cl.ctls))
	for i, c := range cl.ctls {
		received[i] = c.EventsReceived
	}
	sw.PacketArrival("h1", "h2")
	cl.run(t)
	for i, c := range cl.ctls {
		if c.EventsReceived != received[i]+1 {
			t.Fatalf("%s received %d events after the forged config, want %d", cl.members[i], c.EventsReceived, received[i]+1)
		}
	}
}

// TestMetadataConfigGateReadsQuorumAndAggregator: a threshold-signed config
// at the signed policy's phase, naming the policy's members, is refused by
// the switch's metadata gate when its quorum or its aggregator differs from
// the policy's, and adopted when all three match.
func TestMetadataConfigGateReadsQuorumAndAggregator(t *testing.T) {
	cl := buildMetaCluster(t, 4)
	quorum := CiceroQuorum(4)
	names := make([]string, len(cl.members))
	for i, m := range cl.members {
		names[i] = string(m)
	}
	cl.ctls[0].PublishPolicy(metarepo.Policy{Phase: 0, Members: names, Quorum: quorum})
	cl.run(t)

	// A switch that verifies the config signature for real, holding the
	// set the leader assembled: only the metadata gate can refuse a config
	// the group key signed.
	keys, err := pki.NewKeyPair(rand.Reader, "s9")
	if err != nil {
		t.Fatal(err)
	}
	cl.dir.MustRegister(keys)
	sw, err := dataplane.New(dataplane.Config{
		ID: "s9", Net: cl.net, Mode: dataplane.ModeThreshold, CryptoReal: true,
		Keys: keys, Directory: cl.dir, Scheme: cl.scheme, GroupKey: cl.gk, Quorum: quorum,
		Metadata: &dataplane.MetadataConfig{Genesis: cl.rootEnv},
	})
	if err != nil {
		t.Fatal(err)
	}
	sw.Bootstrap(cl.members, "", quorum)
	sw.HandleMessage(fabric.NodeID(cl.members[0]), protocol.MsgMetaSet{Envs: cl.ctls[0].MetaStore().CurrentSet()})
	if tg := sw.MetaStore().PolicyTargets(); tg == nil || tg.Policy.Quorum != quorum {
		t.Fatalf("switch holds policy targets %+v, want quorum %d", tg, quorum)
	}

	signed := func(quorum int, aggregator pki.Identity) protocol.MsgConfig {
		canonical := protocol.ConfigBytes(0, quorum, cl.members, aggregator)
		var shares []bls.SignatureShare
		for _, share := range cl.shares[:cl.gk.T] {
			shares = append(shares, cl.scheme.SignShare(share, canonical))
		}
		sig, err := cl.scheme.Combine(cl.gk, shares)
		if err != nil {
			t.Fatal(err)
		}
		return protocol.MsgConfig{Phase: 0, Quorum: quorum, Members: cl.members, Aggregator: aggregator,
			GroupKey: cl.gk, Signature: cl.scheme.Params.PointBytes(sig.Point)}
	}
	for _, tc := range []struct {
		name   string
		config protocol.MsgConfig
		refuse bool
	}{
		{"another quorum", signed(quorum-1, ""), true},
		{"another aggregator", signed(quorum, cl.members[1]), true},
		{"the signed policy", signed(quorum, ""), false},
	} {
		gate, rejected := sw.MetaConfigRejects, sw.UpdatesRejected
		sw.HandleMessage(fabric.NodeID(cl.members[0]), tc.config)
		if refused := sw.MetaConfigRejects == gate+1; refused != tc.refuse || sw.UpdatesRejected != rejected+sw.MetaConfigRejects-gate {
			t.Errorf("%s: MetaConfigRejects %d → %d, UpdatesRejected %d → %d; want the gate to refuse it: %v",
				tc.name, gate, sw.MetaConfigRejects, rejected, sw.UpdatesRejected, tc.refuse)
		}
	}
}
