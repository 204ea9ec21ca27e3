package synthesis

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cicero/internal/core"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/netprop"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/routing"
	"cicero/internal/scheduler"
)

// ExecOptions tunes plan execution.
type ExecOptions struct {
	// Backend selects the transport: "sim" (discrete-event simulator),
	// "inproc" (live goroutine fabric), or "tcp" (live TCP loopback).
	Backend string
	// Seed seeds the protocol stack (jitter, elections).
	Seed int64
}

const (
	// The simulator backend samples the tables every simCheckInterval of
	// simulated time until simBudget.
	simBudget        = time.Second
	simCheckInterval = 2 * time.Millisecond
	// execTimeout bounds a live execution's wait for the plan's last apply.
	execTimeout = 30 * time.Second
)

func (o ExecOptions) defaulted() ExecOptions {
	if o.Backend == "" {
		o.Backend = "sim"
	}
	return o
}

// ExecResult reports one plan execution.
type ExecResult struct {
	// Applied counts valid switch applies observed for the plan.
	Applied int
	// Checks counts property evaluations (simulator ticks plus replayed
	// apply states).
	Checks int
	// Violations are the deduplicated property violations observed by the
	// invariant plane during and after execution. A verified plan must
	// produce none.
	Violations []netprop.Violation
}

// planApp is the routing application that answers a registered
// policy-change event with the synthesized plan's mods. It is pure data,
// so every controller replica plans identically.
type planApp struct {
	plans map[openflow.MsgID][]openflow.FlowMod
}

// PlanFlow implements routing.App.
func (a *planApp) PlanFlow(ev protocol.Event) ([]openflow.FlowMod, error) {
	if ev.Kind != protocol.EventPolicyChange {
		return nil, nil
	}
	return a.plans[ev.ID], nil
}

// recorder captures switch apply decisions (via the dataplane apply
// hook) for offline replay verification. Live switches run on their own
// goroutines, hence the mutex.
type recorder struct {
	mu     sync.Mutex
	seen   map[string]bool
	order  []openflow.FlowMod
	valid  int
	bogus  int
	origin string
	// done closes at the want-th valid apply of the plan.
	want int
	done chan struct{}
}

func (rec *recorder) hook(sw string, id openflow.MsgID, phase uint64, mods []openflow.FlowMod, valid bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	key := fmt.Sprintf("%s|%s", sw, id)
	if rec.seen[key] {
		return
	}
	rec.seen[key] = true
	if !valid {
		rec.bogus++
		return
	}
	if id.Origin == rec.origin {
		if rec.valid++; rec.valid == rec.want {
			close(rec.done)
		}
	}
	rec.order = append(rec.order, mods...)
}

func (rec *recorder) validCount() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.valid
}

func (rec *recorder) applyOrder() []openflow.FlowMod {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]openflow.FlowMod(nil), rec.order...)
}

// Execute runs a synthesized plan through the full BFT +
// threshold-signature pipeline: the old configuration is pre-seeded into
// the switch tables, a policy-change event is raised, the controllers
// plan it through the registry app, and the Planned scheduler replays the
// synthesized dependency graph. The shared invariant walkers
// independently confirm every promised property — sampled on the
// simulator clock for the sim backend, and by exact replay of the
// recorded apply order on every backend — and the final tables must be
// exactly the new configuration.
func Execute(scn *Scenario, plan *Plan, opt ExecOptions) (*ExecResult, error) {
	opt = opt.defaulted()
	// The policy event enters through a switch, and an event speaks for the
	// switch that sealed it: its id sits under the emitter's.
	emitterID := scn.Switches()[0]
	evID := openflow.MsgID{Origin: emitterID + "/synth/" + scn.Name, Seq: 1}
	origin := fmt.Sprintf("%s/d%d", evID, 0)
	rec := &recorder{seen: map[string]bool{}, origin: origin, want: len(plan.Updates), done: make(chan struct{})}
	if rec.want == 0 {
		close(rec.done)
	}
	app := &planApp{plans: map[openflow.MsgID][]openflow.FlowMod{evID: plan.Mods()}}

	cfg := core.Config{
		Graph:           scn.Graph,
		Seed:            opt.Seed,
		Scheduler:       scheduler.Planned{ByOrigin: map[string][][]int{origin: plan.Deps}},
		AppFactory:      func() routing.App { return app },
		SwitchApplyHook: rec.hook,
	}
	// Per backend: a live fabric has to be opened, and runs real crypto.
	sim := opt.Backend == "sim"
	if !sim {
		fab, err := livenet.Open(opt.Backend, protocol.NewWireCodec(nil))
		if err != nil {
			return nil, fmt.Errorf("synthesis: %w", err)
		}
		defer fab.Close()
		cfg.Fabric = fab
		cfg.CryptoReal = true
		// Live runs share wall-clock cores with the whole harness; a
		// sub-second view-change timeout would misread scheduling hiccups
		// as a failed primary.
		cfg.ViewChangeTimeout = 5 * time.Second
	}
	n, err := core.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("synthesis: build %s network: %w", opt.Backend, err)
	}

	// Pre-seed the old configuration.
	for _, sw := range scn.Switches() {
		if err := n.On(fabric.NodeID(sw), func() {
			t := n.Switches[sw].Table()
			for _, r := range scn.Old[sw] {
				t.Add(r)
			}
		}); err != nil {
			return nil, err
		}
	}

	emitter := n.Switches[emitterID]
	ev := protocol.Event{ID: evID, Kind: protocol.EventPolicyChange}
	res := &ExecResult{}
	viol := &collector{seen: make(map[string]bool)}

	if err := n.On(fabric.NodeID(emitter.ID()), func() { emitter.EmitEvent(ev) }); err != nil {
		return nil, err
	}
	// Per backend: only a simulated clock can be sampled between events,
	// so the invariant tick reads the tables for the whole budget there;
	// the replay below judges every backend.
	if sim {
		var tick func()
		tick = func() {
			tables := simTables(n, scn)
			for _, v := range netprop.Check(tables, scn.Hosts, scn.Props) {
				viol.report(v.Property, v.DedupKey, "t="+n.Sim.Now().String()+" "+v.Detail, v.Token)
			}
			res.Checks++
			if n.Sim.Now()+simCheckInterval <= simBudget {
				n.Sim.Schedule(simCheckInterval, tick)
			}
		}
		n.Sim.Schedule(simCheckInterval, tick)
	}
	if err := n.Settle(execTimeout, rec.done); err != nil {
		return nil, fmt.Errorf("synthesis: %s backend applied %d/%d updates: %w", opt.Backend, rec.validCount(), len(plan.Updates), err)
	}
	res.Applied = rec.validCount()

	// Exact replay: re-walk every intermediate state the switches
	// actually traversed, in recorded apply order.
	tables := scn.TablesOld()
	for _, mod := range rec.applyOrder() {
		if t := tables[mod.Switch]; t != nil {
			t.Apply(mod)
		}
		for _, v := range netprop.Check(tables, scn.Hosts, scn.Props) {
			viol.report(v.Property, v.DedupKey, "replay: "+v.Detail, v.Token)
		}
		res.Checks++
	}

	// The final tables must be exactly the new configuration — both in
	// the replay and on the real switches.
	want := scn.TablesNew()
	for _, sw := range scn.Switches() {
		if !sameRules(tables[sw].Rules(), want[sw].Rules()) {
			viol.report("final-state", "replay|"+sw,
				fmt.Sprintf("replayed final table of %s differs from the new configuration", sw), sw)
		}
	}
	finals, err := n.Tables()
	if err != nil {
		return nil, err
	}
	for _, sw := range scn.Switches() {
		if !sameRules(finals[sw].Rules(), want[sw].Rules()) {
			viol.report("final-state", "switch|"+sw,
				fmt.Sprintf("switch %s final table differs from the new configuration: got %v want %v",
					sw, finals[sw].Rules(), want[sw].Rules()), sw)
		}
	}
	res.Violations = viol.violations
	return res, nil
}

// simTables snapshots the simulator switches' tables (safe on the sim
// loop: ticks run between events).
func simTables(n *core.Network, scn *Scenario) map[string]*openflow.FlowTable {
	tables := make(map[string]*openflow.FlowTable, len(n.Switches))
	for _, sw := range scn.Switches() {
		tables[sw] = n.Switches[sw].Table()
	}
	return tables
}

// collector gathers deduplicated violations (mirrors netprop's).
type collector struct {
	seen       map[string]bool
	violations []netprop.Violation
}

func (c *collector) report(property, dedupKey, detail, token string) {
	key := property + "|" + dedupKey
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.violations = append(c.violations, netprop.Violation{Property: property, DedupKey: dedupKey, Detail: detail, Token: token})
}

// SweepOptions tunes a randomized synthesis sweep.
type SweepOptions struct {
	// Seeds is how many consecutive seeds to run (default 10), starting
	// at StartSeed (default 1).
	Seeds     int
	StartSeed int64
	// Backends lists the execution backends per seed (default sim +
	// inproc).
	Backends []string
	// Canary plants a bad-ordering mutant per seed and requires local
	// verification to catch it (default on via Sweep's callers).
	Canary bool
	// Progress, when set, is called after each seed finishes (plan is
	// nil when generation failed; failures is the running total).
	Progress func(done, total int, seed int64, plan *Plan, failures int)
}

// BackendStats aggregates one backend's sweep results.
type BackendStats struct {
	Executed   int
	Applied    int
	Checks     int
	Violations int
}

// SweepResult aggregates a randomized synthesis sweep.
type SweepResult struct {
	Seeds        int
	Plans        int
	Updates      int
	TwoPhase     int
	CanaryTotal  int
	CanaryCaught int
	PerBackend   map[string]*BackendStats
	// Failures lists seed-level errors and violations, rendered.
	Failures []string
}

// Violations reports the total violation count across backends.
func (r *SweepResult) Violations() int {
	total := 0
	for _, b := range r.PerBackend {
		total += b.Violations
	}
	return total
}

// Backends returns the sweep's backend names, sorted.
func (r *SweepResult) Backends() []string {
	out := make([]string, 0, len(r.PerBackend))
	for b := range r.PerBackend {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Sweep generates, synthesizes, canaries, and executes one scenario per
// seed on every backend: the end-to-end acceptance loop. A healthy sweep
// has zero violations, zero failures, and every canary caught.
func Sweep(opt SweepOptions) *SweepResult {
	if opt.Seeds == 0 {
		opt.Seeds = 10
	}
	if opt.StartSeed == 0 {
		opt.StartSeed = 1
	}
	if len(opt.Backends) == 0 {
		opt.Backends = []string{"sim", "inproc"}
	}
	res := &SweepResult{Seeds: opt.Seeds, PerBackend: map[string]*BackendStats{}}
	for _, b := range opt.Backends {
		res.PerBackend[b] = &BackendStats{}
	}
	for i := 0; i < opt.Seeds; i++ {
		seed := opt.StartSeed + int64(i)
		scn, plan, err := Generate(seed)
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("seed %d: %v", seed, err))
			if opt.Progress != nil {
				opt.Progress(i+1, opt.Seeds, seed, nil, len(res.Failures))
			}
			continue
		}
		res.Plans++
		res.Updates += len(plan.Updates)
		for _, c := range plan.Classes {
			if c.TwoPhase {
				res.TwoPhase++
			}
		}
		if opt.Canary {
			res.CanaryTotal++
			mutant, edge, ok := PlantBadOrdering(scn, plan, seed)
			if !ok {
				res.Failures = append(res.Failures, fmt.Sprintf("seed %d: canary not plantable", seed))
			} else if err := VerifyPlan(scn, mutant); err != nil {
				res.CanaryCaught++
			} else {
				res.Failures = append(res.Failures,
					fmt.Sprintf("seed %d: canary MISSED: dropped edge %s passed local verification", seed, edge))
			}
		}
		for _, backend := range opt.Backends {
			er, err := Execute(scn, plan, ExecOptions{Backend: backend, Seed: seed})
			if err != nil {
				res.Failures = append(res.Failures, fmt.Sprintf("seed %d [%s]: %v", seed, backend, err))
				continue
			}
			st := res.PerBackend[backend]
			st.Executed++
			st.Applied += er.Applied
			st.Checks += er.Checks
			st.Violations += len(er.Violations)
			for _, v := range er.Violations {
				res.Failures = append(res.Failures, fmt.Sprintf("seed %d [%s]: %s", seed, backend, v))
			}
		}
		if opt.Progress != nil {
			opt.Progress(i+1, opt.Seeds, seed, plan, len(res.Failures))
		}
	}
	return res
}
