package distrib

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"cicero/internal/audit"
	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/dataplane"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/pki"
)

// NodeOptions boots one node process (the runtime behind cmd/cicero-node,
// kept here so tests can drive it in-process).
type NodeOptions struct {
	// BundlePath is the signed provisioning bundle; DeployPub the trust
	// anchor its signature must verify against.
	BundlePath string
	DeployPub  ed25519.PublicKey
	// AddrsPath is the static address map: JSON object of node id ->
	// dial address (proxy fronts for node peers, the driver directly).
	AddrsPath string
	// TracePath, when non-empty, enables structured tracing.
	TracePath string
	// BootEpoch counts the node's boots; the supervisor bumps it on every
	// restart. Above 0 the node is a replacement and boots through the
	// recovery paths (core's restart rule).
	BootEpoch uint32
}

// RunNode boots the node a bundle provisions, announces itself to the
// driver, and serves until ctx is cancelled. The returned error is nil
// on a clean shutdown.
func RunNode(ctx context.Context, opts NodeOptions) error {
	codec := protocol.NewWireCodec(pairing.Fast254())
	bundle, err := LoadBundle(opts.BundlePath, codec, opts.DeployPub)
	if err != nil {
		return err
	}
	addrData, err := os.ReadFile(opts.AddrsPath)
	if err != nil {
		return err
	}
	var addrs map[string]string
	if err := json.Unmarshal(addrData, &addrs); err != nil {
		return fmt.Errorf("distrib: address map %s: %w", opts.AddrsPath, err)
	}
	remotes := make(map[fabric.NodeID]string, len(addrs))
	for id, addr := range addrs {
		if id == bundle.ID {
			continue // self is served locally
		}
		remotes[fabric.NodeID(id)] = addr
	}

	clock := livenet.NewLamportClock()
	fab, err := livenet.NewTCPNode(livenet.TCPOptions{
		Codec:   codec,
		Remotes: remotes,
		Clock:   clock,
	})
	if err != nil {
		return err
	}
	defer fab.Close()

	var tracer *Tracer
	if opts.TracePath != "" {
		// Each boot is its own trace process: a restarted node starts a
		// fresh Lamport clock and sequence, and CheckCausal's per-process
		// monotonicity is a per-boot property.
		proc := fmt.Sprintf("%s#%d", bundle.ID, opts.BootEpoch)
		tracer, err = NewTracer(opts.TracePath, proc, clock)
		if err != nil {
			return err
		}
		defer tracer.Close()
	}

	rt := &nodeRuntime{
		bundle: bundle,
		opts:   opts,
		fab:    fab,
		tracer: tracer,
	}
	if err := rt.build(); err != nil {
		return err
	}
	tracer.Emit(TraceBoot, fmt.Sprintf("%s epoch=%d", bundle.Role, opts.BootEpoch), "")
	if err := rt.hello(); err != nil {
		return err
	}

	<-ctx.Done()
	tracer.Emit(TraceShutdown, "", "")
	rt.stop()
	return nil
}

// nodeRuntime is one booted node: its fabric, its protocol object, and
// the runtime state the driver can query.
type nodeRuntime struct {
	bundle *protocol.NodeBundle
	opts   NodeOptions
	fab    *livenet.TCP
	tracer *Tracer

	ctl *controlplane.Controller
	sw  *dataplane.Switch

	// applies collects switch apply decisions for snapshots (guarded: the
	// hook runs on the switch mailbox, snapshots read on the same mailbox,
	// but Stop-time access crosses goroutines).
	amu     sync.Mutex
	applies []protocol.SnapshotApply
}

// build turns the bundle back into the node's provisioning and boots it
// the way core boots every node, on the fabric behind the runtime's
// tracing/control wrapper.
func (rt *nodeRuntime) build() error {
	cfg, prov, err := unpack(rt.bundle)
	if err != nil {
		return err
	}
	cfg.SwitchApplyHook = rt.onApply
	tfab := &tracedFabric{Fabric: rt.fab, rt: rt}
	if rt.bundle.Role == protocol.RoleController {
		rt.ctl, err = core.BootController(cfg, tfab, prov, 0, pki.Identity(rt.bundle.ID), rt.opts.BootEpoch)
	} else {
		rt.sw, err = core.BootSwitch(cfg, tfab, prov, rt.bundle.ID, rt.opts.BootEpoch)
	}
	return err
}

// hello announces the fresh listener to the driver, retrying briefly (the
// driver is normally already up, but boot order is not guaranteed).
func (rt *nodeRuntime) hello() error {
	self := fabric.NodeID(rt.bundle.ID)
	msg := protocol.MsgNodeHello{
		ID:        rt.bundle.ID,
		Addr:      rt.fab.Addr(self),
		BootEpoch: rt.opts.BootEpoch,
		PID:       os.Getpid(),
	}
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if err = rt.fab.SendErr(self, fabric.NodeID(rt.bundle.Driver), msg, 0); err == nil {
			rt.tracer.Emit(TraceHello, msg.Addr, "")
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("distrib: hello to driver: %w", err)
}

// stop shuts the protocol object down inside its serial context.
func (rt *nodeRuntime) stop() {
	if rt.ctl != nil {
		rt.fab.InvokeWait(fabric.NodeID(rt.bundle.ID), rt.ctl.Stop)
	}
}

// onApply is the switch apply hook: it records the decision for
// snapshots and traces it with the update digest as causal reference.
func (rt *nodeRuntime) onApply(sw string, id openflow.MsgID, phase uint64, mods []openflow.FlowMod, valid bool) {
	digest := sha256.Sum256(openflow.CanonicalUpdateBytes(id, phase, mods))
	rt.amu.Lock()
	rt.applies = append(rt.applies, protocol.SnapshotApply{
		Origin: id.Origin, Seq: id.Seq, Phase: phase, Digest: digest[:], Valid: valid,
	})
	rt.amu.Unlock()
	rt.tracer.Emit(TraceApply, fmt.Sprintf("%s valid=%v", id, valid), hex.EncodeToString(digest[:]))
}

// handleControl intercepts driver control messages; it runs on the
// node's mailbox, so protocol state is safe to read. It reports whether
// the message was consumed.
func (rt *nodeRuntime) handleControl(from fabric.NodeID, msg fabric.Message) bool {
	self := fabric.NodeID(rt.bundle.ID)
	driver := fabric.NodeID(rt.bundle.Driver)
	switch m := msg.(type) {
	case protocol.MsgNodeQuery:
		snap := rt.snapshot()
		snap.Nonce = m.Nonce
		rt.fab.SendErr(self, driver, snap, 0)
		return true
	case protocol.MsgInjectFlow:
		if rt.sw != nil {
			sw := rt.sw
			flow := m
			sw.Subscribe(flow.Src, flow.Dst, func(fabric.Time) {
				rt.fab.SendErr(self, driver, protocol.MsgFlowDone{FlowID: flow.FlowID, Switch: rt.bundle.ID}, 0)
			})
			sw.PacketArrival(flow.Src, flow.Dst)
		}
		return true
	case protocol.MsgNudge:
		switch m.Op {
		case protocol.NudgeResendEvents:
			if rt.sw != nil {
				rt.sw.ResendPendingEvents()
			}
		case protocol.NudgeRedispatch:
			if rt.ctl != nil {
				rt.ctl.RedispatchUnacked()
			}
		case protocol.NudgeRecover:
			if rt.ctl != nil {
				rt.ctl.StartRecovery()
			}
		}
		return true
	}
	_ = from
	return false
}

// snapshot builds the node's state snapshot (mailbox context).
func (rt *nodeRuntime) snapshot() protocol.MsgNodeSnapshot {
	snap := protocol.MsgNodeSnapshot{ID: rt.bundle.ID, Role: rt.bundle.Role}
	if rt.ctl != nil {
		records := rt.ctl.AuditRecords()
		snap.View, snap.LastDelivered = rt.ctl.BroadcastCoords()
		snap.Records = make([]protocol.SnapshotRecord, len(records))
		for i, rec := range records {
			digest := sha256.Sum256(rec.Canonical)
			snap.Records[i] = protocol.SnapshotRecord{
				Seq: rec.Seq, Kind: rec.Kind.String(), Subject: rec.Subject, Digest: digest[:],
			}
		}
		chain := audit.ChainDigest(records)
		snap.ChainDigest = chain[:]
		content := audit.ContentDigest(records)
		snap.ContentDigest = content[:]
		snap.Recovering = rt.ctl.Recovering()
		snap.Recovered = rt.ctl.Recovered()
	}
	if rt.sw != nil {
		snap.Rules = rt.sw.Table().Rules()
		snap.UpdatesApplied = rt.sw.UpdatesApplied
		snap.UpdatesRejected = rt.sw.UpdatesRejected
		rt.amu.Lock()
		snap.Applies = append([]protocol.SnapshotApply(nil), rt.applies...)
		rt.amu.Unlock()
	}
	return snap
}

// tracedFabric wraps the node's fabric: sends are traced (with hash
// references for updates), deliveries are traced and driver control
// messages peeled off before the protocol handler sees them.
type tracedFabric struct {
	fabric.Fabric
	rt *nodeRuntime
}

func (t *tracedFabric) Register(id fabric.NodeID, h fabric.Handler) {
	rt := t.rt
	t.Fabric.Register(id, fabric.HandlerFunc(func(from fabric.NodeID, msg fabric.Message) {
		rt.tracer.Emit(TraceRecv, fmt.Sprintf("%T from %s", msg, from), updateRef(msg))
		if rt.handleControl(from, msg) {
			return
		}
		h.HandleMessage(from, msg)
	}))
}

func (t *tracedFabric) Send(from, to fabric.NodeID, msg fabric.Message, size int) {
	t.rt.tracer.Emit(TraceSend, fmt.Sprintf("%T to %s", msg, to), updateRef(msg))
	t.Fabric.Send(from, to, msg, size)
}

// updateRef extracts the canonical update digest from update-bearing
// messages — the hash reference linking dispatch and apply across
// process trace files.
func updateRef(msg fabric.Message) string {
	var id openflow.MsgID
	var phase uint64
	var mods []openflow.FlowMod
	switch m := msg.(type) {
	case protocol.MsgUpdate:
		id, phase, mods = m.UpdateID, m.Phase, m.Mods
	case protocol.MsgAggUpdate:
		id, phase, mods = m.UpdateID, m.Phase, m.Mods
	case protocol.MsgBatchUpdate:
		id, phase, mods = m.UpdateID, m.Phase, m.Mods
	default:
		return ""
	}
	digest := sha256.Sum256(openflow.CanonicalUpdateBytes(id, phase, mods))
	return hex.EncodeToString(digest[:])
}
