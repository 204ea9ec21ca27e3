package main

import (
	"crypto/rand"
	"errors"
	"fmt"
	"runtime"
	"time"

	"cicero/internal/audit"
	"cicero/internal/bft"
	"cicero/internal/dataplane"
	"cicero/internal/experiments"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/routing"
	"cicero/internal/scheduler"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/merkle"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/pki"
	"cicero/internal/topology"
)

// The micro-benchmarks call each layer's public functions directly, so a
// layer's own cost is known apart from the queueing around it.

// microWindow is how long each micro-benchmark loops.
const microWindow = 60 * time.Millisecond

// measure loops fn for about window and returns ns and allocations per
// call (the runtime's malloc counter, as testing -benchmem reports it).
func measure(window time.Duration, fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // warm caches, so the steady-state cost is measured
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	iters := 0
	start := time.Now()
	var elapsed time.Duration
	for elapsed < window {
		fn()
		iters++
		elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// nullFabric is a fabric on which nothing is delivered: what a node sends
// is dropped, thunks run at once. It isolates one node's own work.
type nullFabric struct {
	start time.Time
}

var _ fabric.Fabric = (*nullFabric)(nil)

func (f *nullFabric) Register(fabric.NodeID, fabric.Handler)           {}
func (f *nullFabric) Send(_, _ fabric.NodeID, _ fabric.Message, _ int) {}
func (f *nullFabric) After(fabric.NodeID, time.Duration, func())       {}
func (f *nullFabric) Invoke(_ fabric.NodeID, fn func())                { fn() }
func (f *nullFabric) Charge(fabric.NodeID, time.Duration)              {}
func (f *nullFabric) BusyTotal(fabric.NodeID) time.Duration            { return 0 }
func (f *nullFabric) Now() fabric.Time                                 { return time.Since(f.start) }
func (f *nullFabric) Crashed(fabric.NodeID) bool                       { return false }
func (f *nullFabric) Partitioned(fabric.NodeID, fabric.NodeID) bool    { return false }
func (f *nullFabric) Stats() fabric.Stats                              { return fabric.Stats{} }

// captureSamples runs a tiny traced round (2 clients, one cycle, inproc,
// no batching) and returns its tracer, whose samples are real messages of
// every kind the per-update path sends.
func captureSamples(g *topology.Graph, pairs []hostPair) (*tracedFabric, error) {
	w := workload{Name: "capture", Backend: "inproc", Clients: 2, BatchSize: 1, Cycles: 1}
	ops, err := makeOps(pairs, w.Clients, 2020, 0)
	if err != nil {
		return nil, err
	}
	r, err := runRound(roundSpec{w: w, graph: g, ops: ops, traced: true})
	if err != nil {
		return nil, fmt.Errorf("capture round: %w", err)
	}
	return r.spans, nil
}

// variantPayloads derives n distinct broadcast payloads from a captured
// pre-prepare's payload by renumbering its event.
func variantPayloads(sample fabric.Message, n int) ([][]byte, error) {
	m, ok := sample.(protocol.MsgBFT)
	if !ok {
		return nil, errors.New("micro: no pre-prepare sample")
	}
	pp, ok := m.Inner.(bft.PrePrepare)
	if !ok {
		return nil, errors.New("micro: sample is not a pre-prepare")
	}
	item, err := protocol.DecodeBroadcastItem(pp.Payload)
	if err != nil || item.Event == nil {
		return nil, fmt.Errorf("micro: pre-prepare sample carries no event: %v", err)
	}
	out := make([][]byte, n)
	for i := range out {
		ev := *item.Event
		ev.ID.Seq = uint64(1000 + i)
		it := item
		it.Event = &ev
		out[i] = it.Encode()
	}
	return out, nil
}

// cryptoMicro measures the tcrypto layer: the operations RunCryptoBench
// already times, plus the ones the batched path adds on top.
func cryptoMicro(out map[string]float64) error {
	report, err := experiments.RunCryptoBench(experiments.Options{})
	if err != nil {
		return err
	}
	ops := make(map[string]experiments.CryptoBenchOp)
	for _, op := range report.Ops {
		ops[op.Name] = op
	}
	for name, src := range map[string]string{
		"tcrypto.pair_us":             "pair",
		"tcrypto.hash_to_g1_us":       "hash-to-g1",
		"tcrypto.sign_share_us":       "sign/share",
		"tcrypto.verify_share_us":     "verify/share",
		"tcrypto.verify_aggregate_us": "verify/aggregate",
	} {
		op, ok := ops[src]
		if !ok {
			return fmt.Errorf("micro: crypto bench has no op %q", src)
		}
		out[name] = float64(op.NsPerOp) / 1e3
	}
	out["tcrypto.pair_allocs"] = float64(ops["pair"].AllocsPerOp)
	out["tcrypto.verify_cached_hit_ns"] = float64(ops["verify/cached-hit"].NsPerOp)

	// The deployment's quorum: t = 2 of n = 4.
	scheme := bls.NewScheme(pairing.Fast254())
	gk, keyShares, err := scheme.Deal(rand.Reader, 2, 4)
	if err != nil {
		return err
	}
	msg := []byte("bench/combine")
	shares := []bls.SignatureShare{scheme.SignShare(keyShares[0], msg), scheme.SignShare(keyShares[1], msg)}
	var combineErr error
	ns, _ := measure(microWindow, func() {
		if _, err := scheme.CombineVerified(gk, msg, shares); err != nil {
			combineErr = err
		}
	})
	if combineErr != nil {
		return combineErr
	}
	out["tcrypto.combine_verified_t2_us"] = ns / 1e3

	keys, err := pki.NewKeyPair(rand.Reader, "bench/signer")
	if err != nil {
		return err
	}
	dir := pki.NewDirectory()
	dir.MustRegister(keys)
	release := protocol.BatchReleaseBytes(openflow.MsgID{Origin: "d0-p0-tor1#7/d0", Seq: 1}, 0, make([]byte, merkle.HashSize))
	sig := keys.Sign(release)
	ns, _ = measure(microWindow, func() { keys.Sign(release) })
	out["tcrypto.ed25519_sign_us"] = ns / 1e3
	var verifyErr error
	ns, _ = measure(microWindow, func() { verifyErr = dir.Verify(keys.ID, release, sig) })
	if verifyErr != nil {
		return verifyErr
	}
	out["tcrypto.ed25519_verify_us"] = ns / 1e3

	leaves := make([][]byte, 32)
	for i := range leaves {
		leaves[i] = openflow.CanonicalUpdateBytes(openflow.MsgID{Origin: "d0-p0-tor1#7/d0", Seq: uint64(i)}, 0, sampleMods(i))
	}
	ns, _ = measure(microWindow, func() { merkle.NewTree(leaves).Root() })
	out["tcrypto.merkle_root32_us"] = ns / 1e3
	tree := merkle.NewTree(leaves)
	root := tree.Root()
	proof := tree.Proof(17)
	okProof := true
	ns, _ = measure(microWindow, func() { okProof = okProof && merkle.Verify(root[:], leaves[17], 17, 32, proof) })
	if !okProof {
		return errors.New("micro: merkle proof did not verify")
	}
	out["tcrypto.merkle_verify32_us"] = ns / 1e3
	return nil
}

// sampleMods is the i-th synthetic single-rule update for the switch
// "bench-sw", shaped like the pair rules the routing app plans.
func sampleMods(i int) []openflow.FlowMod {
	return []openflow.FlowMod{{
		Op:     openflow.FlowAdd,
		Switch: "bench-sw",
		Rule: openflow.Rule{
			Priority: 10,
			Match:    openflow.Match{Src: fmt.Sprintf("d0-p0-r1-h%d", i), Dst: "d0-p0-r5-h2"},
			Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "d0-p0-edge0"},
		},
	}}
}

// codecMicro times protocol.WireCodec on one message of each kind.
func codecMicro(out map[string]float64, samples map[string]fabric.Message) error {
	codec := protocol.NewWireCodec(nil)
	for name, msg := range samples {
		if msg == nil {
			return fmt.Errorf("micro: no %s message to replay", name)
		}
		data, err := codec.Encode(msg)
		if err != nil {
			return fmt.Errorf("micro: encode %s: %w", name, err)
		}
		var codecErr error
		encNs, encAllocs := measure(microWindow/2, func() {
			if _, err := codec.Encode(msg); err != nil {
				codecErr = err
			}
		})
		decNs, decAllocs := measure(microWindow/2, func() {
			if _, err := codec.Decode(data); err != nil {
				codecErr = err
			}
		})
		if codecErr != nil {
			return fmt.Errorf("micro: codec %s: %w", name, codecErr)
		}
		out["protocol.encode_us."+name] = encNs / 1e3
		out["protocol.decode_us."+name] = decNs / 1e3
		out["protocol.bytes."+name] = float64(len(data))
		out["protocol.allocs."+name] = encAllocs + decAllocs
	}
	return nil
}

// hopMicro bounces msg between two nodes of a live fabric and returns the
// time per one-way hop in microseconds.
func hopMicro(fab liveFabric, msg fabric.Message) float64 {
	defer fab.Close()
	const a, b = fabric.NodeID("hop/a"), fabric.NodeID("hop/b")
	var remaining int
	var done chan struct{}
	fab.Register(b, fabric.HandlerFunc(func(_ fabric.NodeID, m fabric.Message) { fab.Send(b, a, m, 256) }))
	fab.Register(a, fabric.HandlerFunc(func(_ fabric.NodeID, m fabric.Message) {
		remaining--
		if remaining == 0 {
			close(done)
			return
		}
		fab.Send(a, b, m, 256)
	}))
	trips := func(n int) time.Duration {
		ch := make(chan struct{})
		start := time.Now()
		fab.Invoke(a, func() {
			remaining, done = n, ch
			fab.Send(a, b, msg, 256)
		})
		<-ch
		return time.Since(start)
	}
	trips(20) // dial and warm the link
	const n = 400
	return float64(trips(n)) / float64(2*n) / 1e3
}

// directNet is a bft.Transport that queues messages and hands them over
// by direct call: ordering with no fabric, no codec and no crypto.
type directNet struct {
	replicas  map[bft.ReplicaID]*bft.Replica
	queue     []directMsg
	timers    []func()
	msgs      int
	delivered int
}

type directMsg struct {
	from, to bft.ReplicaID
	msg      bft.Message
}

type directPort struct {
	net  *directNet
	self bft.ReplicaID
}

func (p directPort) Send(to bft.ReplicaID, msg bft.Message) {
	p.net.msgs++
	p.net.queue = append(p.net.queue, directMsg{from: p.self, to: to, msg: msg})
}

// pump delivers until nothing is queued; timers (the batch delay) fire
// only when the queue runs dry, as on an idle network.
func (n *directNet) pump() {
	for len(n.queue) > 0 || len(n.timers) > 0 {
		for len(n.queue) > 0 {
			m := n.queue[0]
			n.queue = n.queue[1:]
			n.replicas[m.to].Handle(m.from, m.msg)
		}
		timers := n.timers
		n.timers = nil
		for _, fn := range timers {
			fn()
		}
	}
}

// orderMicro orders the payloads through four replicas and returns time
// and messages per ordered payload.
func orderMicro(batch int, payloads [][]byte) (usPerOp, msgsPerOp float64, err error) {
	net := &directNet{replicas: make(map[bft.ReplicaID]*bft.Replica)}
	ids := []bft.ReplicaID{1, 2, 3, 4}
	for _, id := range ids {
		r, err := bft.NewReplica(bft.Config{
			ID:        id,
			Replicas:  ids,
			Mode:      bft.ModeByzantine,
			Transport: directPort{net: net, self: id},
			Timer:     func(_ time.Duration, fn func()) { net.timers = append(net.timers, fn) },
			Deliver:   func(uint64, []byte) { net.delivered++ },
			BatchSize: batch,
		})
		if err != nil {
			return 0, 0, err
		}
		net.replicas[id] = r
	}
	start := time.Now()
	for _, p := range payloads {
		net.replicas[1].Submit(p) // replica 1 leads view 0
		if batch <= 1 {
			net.pump()
		}
	}
	net.pump()
	elapsed := time.Since(start)
	if want := len(ids) * len(payloads); net.delivered != want {
		return 0, 0, fmt.Errorf("micro: bft delivered %d payloads, want %d", net.delivered, want)
	}
	n := float64(len(payloads))
	return float64(elapsed) / n / 1e3, float64(net.msgs) / n, nil
}

// switchBench is one switch on a null fabric with the key material to
// presign quorums for it.
type switchBench struct {
	sw     *dataplane.Switch
	scheme *bls.Scheme
	shares []bls.KeyShare
	ctl    []*pki.KeyPair
}

func newSwitchBench() (*switchBench, error) {
	scheme := bls.NewScheme(pairing.Fast254())
	gk, shares, err := scheme.Deal(rand.Reader, 2, 4)
	if err != nil {
		return nil, err
	}
	dir := pki.NewDirectory()
	sb := &switchBench{scheme: scheme, shares: shares}
	var members []pki.Identity
	for i := 1; i <= 4; i++ {
		keys, err := pki.NewKeyPair(rand.Reader, pki.Identity(fmt.Sprintf("dom0/ctl/%d", i)))
		if err != nil {
			return nil, err
		}
		dir.MustRegister(keys)
		sb.ctl = append(sb.ctl, keys)
		members = append(members, keys.ID)
	}
	swKeys, err := pki.NewKeyPair(rand.Reader, "bench-sw")
	if err != nil {
		return nil, err
	}
	dir.MustRegister(swKeys)
	sb.sw, err = dataplane.New(dataplane.Config{
		ID:          "bench-sw",
		Net:         &nullFabric{start: time.Now()},
		Mode:        dataplane.ModeThreshold,
		Keys:        swKeys,
		Directory:   dir,
		Scheme:      scheme,
		GroupKey:    gk,
		Quorum:      2,
		Controllers: members,
		CryptoReal:  true,
	})
	return sb, err
}

// updateQuorum presigns update i as the first two controllers send it.
func (sb *switchBench) updateQuorum(i int) []protocol.MsgUpdate {
	id := openflow.MsgID{Origin: "bench-sw#1/d0", Seq: uint64(i)}
	mods := sampleMods(i)
	canonical := openflow.CanonicalUpdateBytes(id, 0, mods)
	out := make([]protocol.MsgUpdate, 2)
	for c := range out {
		share := sb.scheme.SignShare(sb.shares[c], canonical)
		out[c] = protocol.MsgUpdate{
			UpdateID:   id,
			Mods:       mods,
			From:       sb.ctl[c].ID,
			ShareIndex: sb.shares[c].Index,
			Share:      sb.scheme.Params.PointBytes(share.Point),
		}
	}
	return out
}

// batchQuorum presigns one batch of n updates as the first two
// controllers send it: one root share each, a proof and a release
// attestation per update.
func (sb *switchBench) batchQuorum(batch, n int) []protocol.MsgBatchUpdate {
	ids := make([]openflow.MsgID, n)
	leaves := make([][]byte, n)
	for i := range leaves {
		ids[i] = openflow.MsgID{Origin: fmt.Sprintf("bench-sw#b%d/d0", batch), Seq: uint64(i)}
		leaves[i] = openflow.CanonicalUpdateBytes(ids[i], 0, sampleMods(i))
	}
	tree := merkle.NewTree(leaves)
	root := tree.Root()
	var out []protocol.MsgBatchUpdate
	for c := 0; c < 2; c++ {
		share := sb.scheme.SignShare(sb.shares[c], protocol.BatchBytes(0, root[:]))
		shareBytes := sb.scheme.Params.PointBytes(share.Point)
		for i := range leaves {
			out = append(out, protocol.MsgBatchUpdate{
				UpdateID:   ids[i],
				Mods:       sampleMods(i),
				From:       sb.ctl[c].ID,
				BatchRoot:  root[:],
				LeafIndex:  i,
				LeafCount:  n,
				Proof:      tree.Proof(i),
				ShareIndex: sb.shares[c].Index,
				Share:      shareBytes,
				ReleaseSig: sb.ctl[c].Sign(protocol.BatchReleaseBytes(ids[i], 0, root[:])),
			})
		}
	}
	return out
}

// dataplaneMicro times a switch taking an update from the first share to
// the applied rule, on both install paths, and a flow-table lookup. It
// returns one presigned batch update for the codec benchmark.
func dataplaneMicro(out map[string]float64) (fabric.Message, error) {
	sb, err := newSwitchBench()
	if err != nil {
		return nil, err
	}
	const updates = 48
	quorums := make([][]protocol.MsgUpdate, updates)
	for i := range quorums {
		quorums[i] = sb.updateQuorum(i)
	}
	start := time.Now()
	for _, q := range quorums {
		for _, m := range q {
			sb.sw.HandleMessage(fabric.NodeID(m.From), m)
		}
	}
	out["dataplane.install_us.update"] = float64(time.Since(start)) / updates / 1e3
	if sb.sw.UpdatesApplied != updates {
		return nil, fmt.Errorf("micro: switch applied %d of %d presigned updates", sb.sw.UpdatesApplied, updates)
	}

	const batches, size = 4, 32
	var presigned [][]protocol.MsgBatchUpdate
	for b := 0; b < batches; b++ {
		presigned = append(presigned, sb.batchQuorum(b, size))
	}
	start = time.Now()
	for _, batch := range presigned {
		for _, m := range batch {
			sb.sw.HandleMessage(fabric.NodeID(m.From), m)
		}
	}
	out["dataplane.install_us.batchupdate32"] = float64(time.Since(start)) / (batches * size) / 1e3
	if want := uint64(updates + batches*size); sb.sw.UpdatesApplied != want || sb.sw.UpdatesRejected != 0 {
		return nil, fmt.Errorf("micro: switch applied %d updates (want %d), rejected %d", sb.sw.UpdatesApplied, want, sb.sw.UpdatesRejected)
	}

	table := openflow.NewFlowTable()
	hosts := make([]string, 1000)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d", i)
	}
	for i := range hosts {
		table.Add(openflow.Rule{
			Priority: 10,
			Match:    openflow.Match{Src: hosts[i], Dst: hosts[(i+7)%1000]},
			Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "next"},
		})
	}
	i := 0
	hit := true
	ns, _ := measure(microWindow, func() {
		i = (i + 389) % 1000
		_, ok := table.Lookup(hosts[i], hosts[(i+7)%1000])
		hit = hit && ok
	})
	if !hit {
		return nil, errors.New("micro: flow-table lookup missed an installed rule")
	}
	out["openflow.lookup_ns.1k"] = ns
	return presigned[0][17], nil
}

// controlMicro times the controller's per-event planning steps.
func controlMicro(out map[string]float64, g *topology.Graph, pairs []hostPair) error {
	app := &routing.ShortestPath{Graph: g, PairRules: true}
	var p hostPair
	for _, cand := range pairs {
		if len(cand.Path) == 3 {
			p = cand
			break
		}
	}
	ev := protocol.Event{ID: openflow.MsgID{Origin: p.Path[0], Seq: 1}, Kind: protocol.EventFlowRequest, Src: p.Src, Dst: p.Dst}
	mods, err := app.PlanFlow(ev)
	if err != nil || len(mods) != 3 {
		return fmt.Errorf("micro: routing planned %d mods for a 3-switch path: %v", len(mods), err)
	}
	ns, _ := measure(microWindow, func() { _, _ = app.PlanFlow(ev) }) // error checked above
	out["routing.plan_us"] = ns / 1e3

	updates := make([]scheduler.Update, len(mods))
	for i, m := range mods {
		updates[i] = scheduler.Update{ID: openflow.MsgID{Origin: ev.ID.String() + "/d0", Seq: uint64(i)}, Mod: m}
	}
	ns, _ = measure(microWindow, func() { scheduler.ReversePath{}.Schedule(updates) })
	out["scheduler.plan_us"] = ns / 1e3

	canonical := openflow.CanonicalUpdateBytes(updates[0].ID, 0, mods[:1])
	var ledger audit.Ledger
	ns, _ = measure(microWindow, func() { ledger.Append(audit.KindUpdate, updates[0].ID.String(), canonical) })
	out["audit.append_us"] = ns / 1e3
	return nil
}

// runMicro runs every micro-benchmark and the centralized baseline.
func runMicro(g *topology.Graph, pairs []hostPair) (map[string]float64, error) {
	out := make(map[string]float64)
	if err := cryptoMicro(out); err != nil {
		return nil, err
	}
	batchUpdate, err := dataplaneMicro(out)
	if err != nil {
		return nil, err
	}
	if err := controlMicro(out, g, pairs); err != nil {
		return nil, err
	}

	captured, err := captureSamples(g, pairs)
	if err != nil {
		return nil, err
	}
	payloads, err := variantPayloads(captured.sample(kindBFTPrePrepare), 32*20)
	if err != nil {
		return nil, err
	}
	fullBatch := bft.EncodeBatch(payloads[:32])
	err = codecMicro(out, map[string]fabric.Message{
		"event":             captured.sample(kindEvent),
		"update":            captured.sample(kindUpdate),
		"batchupdate":       batchUpdate,
		"ack":               captured.sample(kindAck),
		"bft-preprepare-b1": captured.sample(kindBFTPrePrepare),
		"bft-preprepare-b32": protocol.MsgBFT{Inner: bft.PrePrepare{
			Seq: 1, Digest: bft.PayloadDigest(fullBatch), Payload: fullBatch,
		}},
		"bft-prepare": captured.sample(kindBFTPrepare),
		"bft-commit":  captured.sample(kindBFTCommit),
	})
	if err != nil {
		return nil, err
	}

	update := captured.sample(kindUpdate)
	out["livenet.hop_us.inproc"] = hopMicro(livenet.NewInProc(protocol.NewWireCodec(nil)), update)
	out["livenet.hop_us.inproc_nocodec"] = hopMicro(livenet.NewInProc(nil), update)
	tcp, err := livenet.NewTCP(protocol.NewWireCodec(nil))
	if err != nil {
		return nil, err
	}
	out["livenet.hop_us.tcp"] = hopMicro(tcp, update)

	for _, b := range []struct {
		name  string
		batch int
	}{{"b1", 1}, {"b32", 32}} {
		us, msgs, err := orderMicro(b.batch, payloads)
		if err != nil {
			return nil, err
		}
		out["bft.order_us_per_op."+b.name] = us
		out["bft.order_msgs_per_op."+b.name] = msgs
	}

	// The floor: the same driver on the single-controller baseline, so
	// fabric + controlplane + dataplane with no bft and no threshold crypto.
	central := workload{Name: "baseline-central", Backend: "inproc", Clients: 1, BatchSize: 1, Cycles: 100, Sequential: true, Central: true}
	ops, err := makeOps(pairs, 1, 2020, 0)
	if err != nil {
		return nil, err
	}
	r, err := runRound(roundSpec{w: central, graph: g, ops: ops})
	if err != nil {
		return nil, fmt.Errorf("baseline-central: %w", err)
	}
	out["baseline.central_install_p50_ms"] = percentile(r.phase.installMs, 0.50)
	return out, nil
}
