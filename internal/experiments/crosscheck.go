package experiments

// The cross-backend equivalence gate. One deterministic list of host pairs
// — each pair is one network update under PairRules — is driven through
// the simulator and both live backends (real threshold crypto, the wire
// codec, real sockets on tcp) at every batch size: once sequentially,
// quiescing between updates, and once with every update in flight at the
// same time. Every leg must converge to what the (simnet, batch 1) cell
// converged to:
//
//   - the same flow tables (openflow.TablesDigest: sorted rules — insertion
//     order varies across backends, content must not);
//   - the same audit-ledger content on every controller
//     (audit.ContentDigest: the atomic broadcast's total order is
//     backend-dependent under concurrency, what it orders is not);
//   - on sequential legs, the same ledger byte for byte and in order
//     (audit.ChainDigest) as the simulator's sequential leg of the same
//     batch size: where update records land depends on ack timing, which a
//     batch size may move and a backend must not.
//
// Two more legs run §4.2 controller aggregation at batch 1 on the live
// backends, which puts MsgAggUpdate through the codec and a socket.
//
// The digests depend on protocol decisions only, never on signatures, so
// the simulator legs run the cost model while the live legs pay for real
// crypto. Nothing here is timed: latency, throughput, pairings and bytes
// per update are what `go run ./bench` measures.

import (
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"time"

	"cicero/internal/audit"
	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/metrics"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/topology"
)

const (
	simnetBackend            = "simnet"
	sequential, concurrent   = "sequential", "concurrent"
	aggSwitch, aggController = "switch", "controller"

	// crossViewChange is every leg's view-change timeout. Live runs share
	// wall-clock cores with the whole harness (and the race detector in
	// CI); a sub-second timeout would misread scheduling hiccups as a
	// failed primary.
	crossViewChange = 5 * time.Second
)

// crossLeg names one run of the gate; its fields are the table's labels.
type crossLeg struct {
	backend string // simnetBackend, "inproc" or "tcp"
	batch   int
	mode    string // sequential (quiesce after every pair) or concurrent
	agg     string // aggSwitch or aggController (§4.2)
}

func (l crossLeg) String() string {
	return fmt.Sprintf("%s/batch=%d/%s/agg=%s", l.backend, l.batch, l.mode, l.agg)
}

// crossOutcome is what one finished leg converged to.
type crossOutcome struct {
	leg   crossLeg
	pairs int
	// updates is the number of updates applied, summed over all switches.
	updates uint64
	tables  string
	// content and chain hold one audit digest per controller, in controller
	// order: all controllers of a correct run agree, but the comparison
	// stays per controller to catch one that diverged.
	content, chain [][32]byte
}

// Crosscheck runs the gate. A mismatch is reported in the rendered table
// and fails the experiment.
func Crosscheck(o Options) (*Result, error) {
	o = o.Defaulted()
	cfg := topology.DefaultFabricConfig()
	cfg.HostsPerRack = 2
	cfg.RacksPerPod = 8
	batches := []int{1, 8, 16, 32, 64}
	nSequential, nConcurrent := 25, 96
	if o.Quick {
		cfg.RacksPerPod = 4
		batches = []int{1, 8, 32}
		nSequential, nConcurrent = 6, 24
	}
	g, err := topology.BuildSinglePod(cfg)
	if err != nil {
		return nil, err
	}
	pairs, err := crossPairs(g, nConcurrent)
	if err != nil {
		return nil, err
	}

	var legs []crossLeg
	for _, backend := range []string{simnetBackend, "inproc", "tcp"} {
		for _, batch := range batches {
			legs = append(legs,
				crossLeg{backend, batch, sequential, aggSwitch},
				crossLeg{backend, batch, concurrent, aggSwitch})
		}
	}
	legs = append(legs,
		crossLeg{"inproc", 1, sequential, aggController},
		crossLeg{"tcp", 1, sequential, aggController})

	outs := make([]crossOutcome, len(legs))
	for i, leg := range legs {
		legPairs := pairs[:nSequential]
		if leg.mode == concurrent {
			legPairs = pairs
		}
		if outs[i], err = runCrossLeg(g, legPairs, leg, o.Seed); err != nil {
			return nil, fmt.Errorf("leg %s: %w", leg, err)
		}
	}
	return crossJudge(outs), nil
}

// crossPairs picks n deterministic host pairs whose paths cross at least
// one switch.
func crossPairs(g *topology.Graph, n int) ([][2]string, error) {
	var hosts []string
	for _, node := range g.NodesOfKind(topology.KindHost) {
		hosts = append(hosts, node.ID)
	}
	sort.Strings(hosts)
	var pairs [][2]string
	for stride := 1; stride < len(hosts) && len(pairs) < n; stride++ {
		for i := 0; i < len(hosts) && len(pairs) < n; i++ {
			src, dst := hosts[i], hosts[(i+stride)%len(hosts)]
			if len(g.SwitchesOnPath(g.ShortestPath(src, dst))) > 0 {
				pairs = append(pairs, [2]string{src, dst})
			}
		}
	}
	if len(pairs) < n {
		return nil, fmt.Errorf("topology yields only %d usable pairs, need %d", len(pairs), n)
	}
	return pairs, nil
}

// runCrossLeg builds a fresh deployment on the leg's backend, drives the
// pairs through it and reads back what it converged to.
func runCrossLeg(g *topology.Graph, pairs [][2]string, leg crossLeg, seed int64) (crossOutcome, error) {
	out := crossOutcome{leg: leg, pairs: len(pairs)}
	cfg := core.Config{
		Graph:             g,
		PairRules:         true,
		Cost:              calibrated,
		Seed:              seed,
		BatchSize:         leg.batch,
		ViewChangeTimeout: crossViewChange,
	}
	if leg.agg == aggController { // the default is switch aggregation
		cfg.Aggregation = controlplane.AggController
	}
	// All that differs per backend: a live fabric has to be opened (core
	// builds the simulator itself) and pays for real crypto.
	if leg.backend != simnetBackend {
		fab, err := livenet.Open(leg.backend, protocol.NewWireCodec(nil))
		if err != nil {
			return out, err
		}
		defer fab.Close()
		cfg.Fabric, cfg.CryptoReal = fab, true
	}
	n, err := core.Build(cfg)
	if err != nil {
		return out, err
	}

	// A concurrent leg injects every pair before it waits for any: the
	// injection order per ingress switch is the pair order on every
	// backend, which keeps the event ids canonical.
	var pending []<-chan struct{}
	for i, p := range pairs {
		pending = append(pending, crossInject(n, p))
		if leg.mode == concurrent && i < len(pairs)-1 {
			continue
		}
		// A minute is for the 96 concurrent pairs under the race detector.
		if err := n.Settle(time.Minute, pending...); err != nil {
			return out, fmt.Errorf("after pair %v: %w", p, err)
		}
		pending = nil
	}

	tables, err := n.Tables()
	if err != nil {
		return out, err
	}
	out.tables = openflow.TablesDigest(tables)
	for id, sw := range n.Switches {
		if err := n.On(fabric.NodeID(id), func() { out.updates += sw.UpdatesApplied }); err != nil {
			return out, err
		}
	}
	ledgers, err := n.Ledgers(0)
	if err != nil {
		return out, err
	}
	for _, records := range ledgers {
		out.content = append(out.content, audit.ContentDigest(records))
		out.chain = append(out.chain, audit.ChainDigest(records))
	}
	return out, nil
}

// crossInject raises the pair's table miss at its ingress switch and
// returns a channel that closes when the ingress rule is installed
// (reverse-path scheduling installs it last, so the whole path is ready).
func crossInject(n *core.Network, pair [2]string) <-chan struct{} {
	path := n.Graph.SwitchesOnPath(n.Graph.ShortestPath(pair[0], pair[1]))
	ingress := n.Switches[path[0]]
	done := make(chan struct{})
	n.Fab.Invoke(fabric.NodeID(ingress.ID()), func() {
		ingress.Subscribe(pair[0], pair[1], func(fabric.Time) { close(done) })
		ingress.PacketArrival(pair[0], pair[1])
	})
	return done
}

// crossJudge compares every outcome with its reference legs among outs and
// renders the verdicts; each mismatch is a failure naming the leg.
func crossJudge(outs []crossOutcome) *Result {
	simnet := func(batch int, mode string) crossOutcome {
		want := crossLeg{simnetBackend, batch, mode, aggSwitch}
		return outs[slices.IndexFunc(outs, func(o crossOutcome) bool { return o.leg == want })]
	}
	short := func(d [32]byte) string { return hex.EncodeToString(d[:6]) }

	res := &Result{Name: "crosscheck"}
	// verdict passes ok through; a failed comparison of leg o with leg ref
	// becomes a gate failure (the table row shows the digests).
	verdict := func(ok bool, what string, o, ref crossLeg) bool {
		if !ok {
			res.fail("leg %s: %s MISMATCH against leg %s", o, what, ref)
		}
		return ok
	}
	tbl := metrics.NewTable("cross-backend equivalence: every leg against the (simnet, batch 1) cell",
		"backend", "batch", "mode", "aggregation", "pairs", "updates",
		"tables", "content", "chain", "tables ok", "content ok", "chain ok")
	for _, o := range outs {
		ref := simnet(1, o.leg.mode)
		tablesOK := verdict(o.tables == ref.tables, "TABLE", o.leg, ref.leg)
		contentOK := verdict(slices.Equal(o.content, ref.content), "CONTENT", o.leg, ref.leg)
		// Concurrent legs order their ledgers by real interleaving; the
		// chain is neither compared nor shown (it differs run to run).
		chain, chainOK := "-", "-"
		if o.leg.mode == sequential {
			ref := simnet(o.leg.batch, sequential)
			chain = short(o.chain[0])
			chainOK = fmt.Sprint(verdict(slices.Equal(o.chain, ref.chain), "CHAIN", o.leg, ref.leg))
		}
		tbl.AddRow(o.leg.backend, o.leg.batch, o.leg.mode, o.leg.agg, o.pairs, o.updates,
			o.tables[:12], short(o.content[0]), chain, tablesOK, contentOK, chainOK)
	}
	res.Tables = []*metrics.Table{tbl}
	if len(res.Failures) == 0 {
		res.Notes = append(res.Notes, "every leg converged to the simnet reference's flow tables and audit ledgers (expected)")
	}
	res.Notes = append(res.Notes, "no wall-clock value is reported here; for latency, throughput and bytes per update run: go run ./bench")
	return res
}
