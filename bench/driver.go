package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"cicero/internal/audit"
	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/topology"
)

// opTimeout is how long a client waits for one operation before it counts
// it failed and moves on.
const opTimeout = 10 * time.Second

// liveFabric is what the driver needs from a livenet backend beyond the
// fabric seam the deployment itself is built on.
type liveFabric interface {
	fabric.Fabric
	InvokeWait(id fabric.NodeID, fn func())
	Resilience() livenet.ResilienceStats
	Close()
}

// newLiveFabric builds the named backend. Both run the wire codec: tcp
// because frames cross sockets, inproc in strict mode (encode + decode in
// Send) as every live experiment of this repository does.
func newLiveFabric(backend string) (liveFabric, error) {
	codec := protocol.NewWireCodec(nil)
	switch backend {
	case "inproc":
		return livenet.NewInProc(codec), nil
	case "tcp":
		return livenet.NewTCP(codec)
	default:
		return nil, fmt.Errorf("unknown backend %q (have inproc, tcp)", backend)
	}
}

// pairKey identifies a flow by its endpoints.
type pairKey struct{ src, dst string }

// completion reports that a client's operation finished. seq lets the
// dispatcher drop a report for an operation it already gave up on.
type completion struct {
	client int
	seq    uint64
	at     time.Time
}

// teardownWait counts the path switches that still have to remove a
// pair's rule.
type teardownWait struct {
	pair      pairKey
	seq       uint64
	remaining atomic.Int32
}

// observer sits on core.Config.SwitchApplyHook. It counts every apply
// decision and turns the last rule removal of a teardown into a
// completion. The hook runs on the switches' own goroutines, so all
// shared state is atomic or read-only while a deployment runs.
type observer struct {
	applied  atomic.Uint64
	rejected atomic.Uint64
	// owner maps each pair to the client that drives it.
	owner map[pairKey]int
	// waits holds each client's outstanding teardown, nil when it has none.
	waits []atomic.Pointer[teardownWait]
	// done carries completions to the dispatcher. A client has one
	// operation outstanding, so len(waits) slots do not fill up while the
	// dispatcher runs and a switch goroutine does not wait for the driver.
	done chan completion
	// stop is closed when the driver no longer reads done, so that a
	// completion arriving after a round was given up cannot park a switch
	// goroutine (and with it the fabric's Close) forever.
	stop chan struct{}
	// spans records apply decisions for the traced pass (nil when off).
	spans *tracedFabric
}

// report hands a completion to the dispatcher.
func (o *observer) report(c completion) {
	select {
	case o.done <- c:
	case <-o.stop:
	}
}

func newObserver(ops opList, spans *tracedFabric) *observer {
	o := &observer{
		owner: make(map[pairKey]int),
		waits: make([]atomic.Pointer[teardownWait], len(ops)),
		done:  make(chan completion, len(ops)),
		stop:  make(chan struct{}),
		spans: spans,
	}
	for c, list := range ops {
		for _, p := range list {
			o.owner[pairKey{p.Src, p.Dst}] = c
		}
	}
	return o
}

// hook implements core.Config.SwitchApplyHook.
func (o *observer) hook(sw string, _ openflow.MsgID, _ uint64, mods []openflow.FlowMod, valid bool) {
	now := time.Now()
	if !valid {
		o.rejected.Add(1)
		return
	}
	o.applied.Add(1)
	if len(mods) == 0 {
		return
	}
	if o.spans != nil {
		o.spans.recordApply(sw, mods[0].Op, now)
	}
	if mods[0].Op != openflow.FlowDelete {
		return
	}
	m := mods[0].Rule.Match
	key := pairKey{m.Src, m.Dst}
	client, ok := o.owner[key]
	if !ok {
		return
	}
	w := o.waits[client].Load()
	if w == nil || w.pair != key {
		return
	}
	if w.remaining.Add(-1) == 0 {
		o.report(completion{client: client, seq: w.seq, at: now})
	}
}

// deployment is one assembled network plus the driver's handles on it.
type deployment struct {
	net *core.Network
	obs *observer
	// tdSeq numbers teardown events; only the dispatcher touches it.
	tdSeq uint64
}

// deployConfig is the deployment every workload and the simulator
// reference share: Cicero with switch aggregation and per-pair rules.
func deployConfig(g *topology.Graph, fab fabric.Fabric, w workload, obs *observer) core.Config {
	var proto controlplane.Protocol // zero: Cicero
	if w.Central {
		proto = controlplane.ProtoCentralized
	}
	return core.Config{
		Graph:           g,
		Protocol:        proto,
		PairRules:       true,
		Fabric:          fab,
		CryptoReal:      fab != nil,
		BatchSize:       w.BatchSize,
		SwitchApplyHook: obs.hook,
		// A loaded 2-core box delays replicas by whole scheduler quanta; a
		// sub-second timeout would read that as a failed primary.
		ViewChangeTimeout: 5 * time.Second,
	}
}

// install makes the pair's ingress switch see a packet it has no rule
// for, and reports completion when the ingress rule is applied. Reverse-
// path scheduling installs the ingress last, so that is when the whole
// path is in place.
func (d *deployment) install(client int, seq uint64, p hostPair) {
	ingress := d.net.Switches[p.Path[0]]
	d.net.Fab.Invoke(fabric.NodeID(ingress.ID()), func() {
		ingress.Subscribe(p.Src, p.Dst, func(fabric.Time) {
			d.obs.report(completion{client: client, seq: seq, at: time.Now()})
		})
		ingress.PacketArrival(p.Src, p.Dst)
	})
}

// teardown emits the flow-teardown event from the ingress switch; the
// observer reports completion when every path switch removed the rule.
func (d *deployment) teardown(client int, seq uint64, p hostPair) {
	w := &teardownWait{pair: pairKey{p.Src, p.Dst}, seq: seq}
	w.remaining.Store(int32(len(p.Path)))
	d.obs.waits[client].Store(w)
	d.tdSeq++
	ingress := d.net.Switches[p.Path[0]]
	ev := protocol.Event{
		// Cookie 0 deletes the pair's rules whatever event installed them.
		ID:   openflow.MsgID{Origin: ingress.ID() + "/td", Seq: d.tdSeq},
		Kind: protocol.EventFlowTeardown,
		Src:  p.Src,
		Dst:  p.Dst,
	}
	d.net.Fab.Invoke(fabric.NodeID(ingress.ID()), func() { ingress.EmitEvent(ev) })
}

// nodeIDs lists every switch and controller of the deployment.
func (d *deployment) nodeIDs() []fabric.NodeID {
	var ids []fabric.NodeID
	for id := range d.net.Switches {
		ids = append(ids, fabric.NodeID(id))
	}
	for _, ctl := range d.controllers() {
		ids = append(ids, fabric.NodeID(ctl.ID()))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (d *deployment) controllers() []*controlplane.Controller {
	return d.net.Domains[0].Controllers
}

// quiesce returns once no message is in flight and no handler is running:
// the traffic counters balance, and stay unchanged across a barrier that
// passes through every node's mailbox.
func quiesce(live liveFabric, nodes []fabric.NodeID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		before := live.Stats()
		if before.Sent == before.Delivered+before.Dropped {
			for _, id := range nodes {
				live.InvokeWait(id, func() {})
			}
			after := live.Stats()
			if after.Sent == before.Sent && after.Sent == after.Delivered+after.Dropped {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fabric did not quiesce within %v (sent %d, delivered %d, dropped %d)",
				timeout, before.Sent, before.Delivered, before.Dropped)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// phaseResult is what one run of the dispatcher measured.
type phaseResult struct {
	installMs  []float64
	teardownMs []float64
	// busy is the time during which at least one operation was
	// outstanding: the whole phase under load, the sum of the operation
	// latencies when the fabric is drained between operations.
	busy      time.Duration
	attempted int
	failed    int
	// ops lists every completed operation in completion order.
	ops []opSpan
	// ticks are the dispatcher's counter readings: one when the phase
	// starts, one every windowLen, one when it ends.
	ticks []tick
}

// tick is one reading of the counters that run with the load.
type tick struct {
	at  time.Time
	cpu time.Duration
	// rssMB is the resident set size.
	rssMB float64
}

// windowLen is how often the dispatcher reads the counters. The host's
// speed changes every second or two (see reference.go); readings this
// close together fall mostly inside one state.
const windowLen = 500 * time.Millisecond

// clientState is one logical client: a state machine that alternates
// install and teardown over its list of pairs.
type clientState struct {
	cycle    int
	tearing  bool
	seq      uint64
	start    time.Time
	inFlight bool
}

// dispatcher drives every client of a deployment from one goroutine, so
// the load generator occupies a single thread next to the system under
// test.
type dispatcher struct {
	dep        *deployment
	live       liveFabric
	nodes      []fabric.NodeID
	ops        opList
	sequential bool
	clients    []clientState
}

// issue starts the client's next operation.
func (d *dispatcher) issue(c int) {
	cl := &d.clients[c]
	cl.seq++
	cl.inFlight = true
	p := d.ops.pairAt(c, cl.cycle)
	cl.start = time.Now()
	if cl.tearing {
		d.dep.teardown(c, cl.seq, p)
	} else {
		d.dep.install(c, cl.seq, p)
	}
}

// run takes every client from cycle `from` up to (not including) `to`.
func (d *dispatcher) run(from, to int) (res phaseResult, err error) {
	if to <= from {
		return res, nil
	}
	active := 0
	outstanding := 0
	var busySince time.Time
	start := func(c int) {
		d.issue(c)
		res.attempted++
		if outstanding == 0 {
			busySince = d.clients[c].start
		}
		outstanding++
	}
	// finish retires the client's operation at time `at` and starts its
	// next one, if any.
	finish := func(c int, at time.Time, ok bool) error {
		cl := &d.clients[c]
		cl.inFlight = false
		outstanding--
		if outstanding == 0 {
			res.busy += at.Sub(busySince)
		}
		if !ok {
			res.failed++
			cl.seq++ // a late completion of the abandoned operation no longer matches
			d.dep.obs.waits[c].Store(nil)
		}
		if !cl.tearing && ok {
			cl.tearing = true
		} else {
			// A failed install has nothing to tear down.
			cl.tearing = false
			cl.cycle++
		}
		if cl.cycle >= to {
			active--
			return nil
		}
		if d.sequential {
			if err := quiesce(d.live, d.nodes, opTimeout); err != nil {
				return err
			}
		}
		start(c)
		return nil
	}
	read := func() {
		res.ticks = append(res.ticks, tick{at: time.Now(), cpu: processCPU(), rssMB: residentMB()})
	}
	read()
	defer read() // res is a named result, so the closing reading is returned too
	for c := range d.clients {
		d.clients[c].cycle = from
		d.clients[c].tearing = false
		active++
		start(c)
	}
	ticker := time.NewTicker(windowLen)
	defer ticker.Stop()
	for active > 0 {
		select {
		case done := <-d.dep.obs.done:
			cl := &d.clients[done.client]
			if !cl.inFlight || done.seq != cl.seq {
				continue
			}
			ms := float64(done.at.Sub(cl.start)) / float64(time.Millisecond)
			res.ops = append(res.ops, opSpan{
				client: done.client, install: !cl.tearing, hops: len(d.ops.pairAt(done.client, cl.cycle).Path),
				start: cl.start, end: done.at,
			})
			if cl.tearing {
				res.teardownMs = append(res.teardownMs, ms)
			} else {
				res.installMs = append(res.installMs, ms)
			}
			if err := finish(done.client, done.at, true); err != nil {
				return res, err
			}
		case now := <-ticker.C:
			read()
			for c := range d.clients {
				cl := &d.clients[c]
				if cl.inFlight && now.Sub(cl.start) > opTimeout {
					if err := finish(c, now, false); err != nil {
						return res, err
					}
				}
			}
			// One timeout is a failed operation; as many as there are
			// clients means the deployment is stuck, and waiting out every
			// remaining operation would take hours.
			if res.failed >= len(d.clients) {
				return res, fmt.Errorf("%d operations timed out after %v each: giving up on the round", res.failed, opTimeout)
			}
		}
	}
	return res, nil
}

// tableDigest hashes every switch's flow table in a canonical order.
func tableDigest(d *deployment, invoke func(id fabric.NodeID, fn func())) [32]byte {
	ids := make([]string, 0, len(d.net.Switches))
	for id := range d.net.Switches {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var lines []string
	for _, id := range ids {
		sw := d.net.Switches[id]
		invoke(fabric.NodeID(id), func() {
			for _, r := range sw.Table().Rules() {
				lines = append(lines, fmt.Sprintf("%s|%d|%s|%s|%d", id, r.Priority, r.Match, r.Action, r.Cookie))
			}
		})
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, line := range lines {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// ledgerView is one controller's audit ledger in digest form plus its
// atomic-broadcast coordinates.
type ledgerView struct {
	id        string
	length    int
	chain     [32]byte
	content   [32]byte
	view      uint64
	slots     uint64
	delivered uint64
}

// ledgers reads every controller through its own serial context.
func ledgers(d *deployment, invoke func(id fabric.NodeID, fn func())) []ledgerView {
	var out []ledgerView
	for _, ctl := range d.controllers() {
		ctl := ctl
		invoke(fabric.NodeID(ctl.ID()), func() {
			records := ctl.AuditRecords()
			view, slots := ctl.BroadcastCoords()
			out = append(out, ledgerView{
				id:        string(ctl.ID()),
				length:    len(records),
				chain:     audit.ChainDigest(records),
				content:   audit.ContentDigest(records),
				view:      view,
				slots:     slots,
				delivered: ctl.EventsDelivered,
			})
		})
	}
	return out
}

// referenceChains runs the operation sequence of a sequential round
// through the same deployment code on the deterministic simulator and
// returns each controller's audit chain digest. The digests depend only
// on protocol decisions, never on signatures, so the reference runs with
// simulated crypto.
func referenceChains(g *topology.Graph, w workload, ops opList, cycles int) (map[string][32]byte, error) {
	obs := newObserver(ops, nil)
	net, err := core.Build(deployConfig(g, nil, w, obs))
	if err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}
	dep := &deployment{net: net, obs: obs}
	var seq uint64
	step := func(p hostPair, tearing bool) error {
		seq++
		if tearing {
			dep.teardown(0, seq, p)
		} else {
			dep.install(0, seq, p)
		}
		if _, err := net.Sim.Run(); err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		select {
		case <-obs.done:
			return nil
		default:
			return fmt.Errorf("reference run: operation %d on %s->%s never completed", seq, p.Src, p.Dst)
		}
	}
	for cycle := 0; cycle < cycles; cycle++ {
		p := ops.pairAt(0, cycle)
		if err := step(p, false); err != nil {
			return nil, err
		}
		if err := step(p, true); err != nil {
			return nil, err
		}
	}
	chains := make(map[string][32]byte)
	for _, l := range ledgers(dep, func(_ fabric.NodeID, fn func()) { fn() }) {
		chains[l.id] = l.chain
	}
	return chains, nil
}
