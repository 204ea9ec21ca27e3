package routing

import (
	"errors"
	"testing"
	"time"

	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/topology"
)

// diamond builds the paper's five-switch example topology (Figs. 1-3):
//
//	s1   s2
//	 \   /|
//	  s3  |     plus hosts h1@s1, h2@s2, h5@s5
//	 /   \|
//	s4 -- s5
func diamond(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	for _, id := range []string{"s1", "s2", "s3", "s4", "s5"} {
		g.AddNode(topology.Node{ID: id, Kind: topology.KindToR})
	}
	for _, id := range []string{"h1", "h2", "h5"} {
		g.AddNode(topology.Node{ID: id, Kind: topology.KindHost})
	}
	links := [][2]string{
		{"s1", "s3"}, {"s2", "s3"}, {"s2", "s5"},
		{"s3", "s4"}, {"s4", "s5"},
		{"h1", "s1"}, {"h2", "s2"}, {"h5", "s5"},
	}
	for _, l := range links {
		if err := g.AddLink(l[0], l[1], time.Millisecond, 5); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestShortestPathPlanFlow(t *testing.T) {
	g := diamond(t)
	app := &ShortestPath{Graph: g}
	mods, err := app.PlanFlow(protocol.Event{
		ID:   openflow.MsgID{Origin: "t", Seq: 1},
		Kind: protocol.EventFlowRequest,
		Src:  "h1", Dst: "h5",
	})
	if err != nil {
		t.Fatalf("PlanFlow: %v", err)
	}
	// h1-s1-s3-s4-s5-h5 or h1-s1-s3-s2-s5-h5 (equal cost); deterministic
	// tie-break picks lexicographically smaller intermediate (s2 < s4).
	if len(mods) != 4 {
		t.Fatalf("mods = %v, want 4 switches", mods)
	}
	if mods[0].Switch != "s1" {
		t.Errorf("first mod on %s, want s1 (path order)", mods[0].Switch)
	}
	// Last switch forwards to the host.
	last := mods[len(mods)-1]
	if last.Switch != "s5" || last.Rule.Action.NextHop != "h5" {
		t.Errorf("egress mod = %v, want s5 -> h5", last)
	}
	// Rules are destination-scoped (reusable) by default.
	for _, m := range mods {
		if m.Rule.Match.Src != openflow.Wildcard || m.Rule.Match.Dst != "h5" {
			t.Errorf("rule match %v, want */h5", m.Rule.Match)
		}
		if m.Op != openflow.FlowAdd {
			t.Errorf("op = %v, want add", m.Op)
		}
	}
}

func TestShortestPathPairRules(t *testing.T) {
	g := diamond(t)
	app := &ShortestPath{Graph: g, PairRules: true}
	mods, err := app.PlanFlow(protocol.Event{
		Kind: protocol.EventFlowRequest, Src: "h1", Dst: "h5",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		if m.Rule.Match.Src != "h1" {
			t.Errorf("pair rule has src %q, want h1", m.Rule.Match.Src)
		}
	}
}

func TestShortestPathTeardown(t *testing.T) {
	g := diamond(t)
	app := &ShortestPath{Graph: g}
	mods, err := app.PlanFlow(protocol.Event{
		Kind: protocol.EventFlowTeardown, Src: "h1", Dst: "h5",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		if m.Op != openflow.FlowDelete {
			t.Errorf("teardown op = %v, want delete", m.Op)
		}
	}
}

func TestShortestPathNoRoute(t *testing.T) {
	g := diamond(t)
	g.AddNode(topology.Node{ID: "island", Kind: topology.KindHost})
	app := &ShortestPath{Graph: g}
	_, err := app.PlanFlow(protocol.Event{Kind: protocol.EventFlowRequest, Src: "h1", Dst: "island"})
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("expected ErrNoRoute, got %v", err)
	}
}

func TestShortestPathUnsupportedEvent(t *testing.T) {
	app := &ShortestPath{Graph: diamond(t)}
	_, err := app.PlanFlow(protocol.Event{Kind: protocol.EventMembershipInfo})
	if !errors.Is(err, ErrUnsupportedEvent) {
		t.Fatalf("expected ErrUnsupportedEvent, got %v", err)
	}
}

func TestShortestPathDeterministicAcrossReplicas(t *testing.T) {
	// Two replicas with independent app instances must produce identical
	// mods — the precondition for threshold shares to combine.
	g := diamond(t)
	a := &ShortestPath{Graph: g}
	b := &ShortestPath{Graph: g}
	ev := protocol.Event{Kind: protocol.EventFlowRequest, Src: "h2", Dst: "h5"}
	ma, err := a.PlanFlow(ev)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.PlanFlow(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(ma) != len(mb) {
		t.Fatal("replicas disagree on mod count")
	}
	for i := range ma {
		if ma[i].String() != mb[i].String() {
			t.Fatalf("replicas disagree at %d: %v vs %v", i, ma[i], mb[i])
		}
	}
}

func TestFirewallBlocksAtIngress(t *testing.T) {
	g := diamond(t)
	app := &Firewall{
		Inner:   &ShortestPath{Graph: g},
		Graph:   g,
		Blocked: []FirewallRule{{Src: "h1", Dst: "h5"}},
	}
	mods, err := app.PlanFlow(protocol.Event{Kind: protocol.EventFlowRequest, Src: "h1", Dst: "h5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 1 {
		t.Fatalf("blocked flow should produce 1 drop mod, got %v", mods)
	}
	if mods[0].Switch != "s1" || mods[0].Rule.Action.Type != openflow.ActionDrop {
		t.Fatalf("expected ingress drop at s1, got %v", mods[0])
	}
	if mods[0].Rule.Priority <= 10 {
		t.Error("drop rule must out-prioritize routing rules")
	}
	// Unblocked traffic routes normally.
	mods, err = app.PlanFlow(protocol.Event{Kind: protocol.EventFlowRequest, Src: "h2", Dst: "h5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) < 2 {
		t.Fatalf("unblocked flow should route, got %v", mods)
	}
}

func TestFirewallWildcard(t *testing.T) {
	g := diamond(t)
	app := &Firewall{
		Inner:   &ShortestPath{Graph: g},
		Graph:   g,
		Blocked: []FirewallRule{{Src: openflow.Wildcard, Dst: "h5"}},
	}
	for _, src := range []string{"h1", "h2"} {
		mods, err := app.PlanFlow(protocol.Event{Kind: protocol.EventFlowRequest, Src: src, Dst: "h5"})
		if err != nil {
			t.Fatal(err)
		}
		if len(mods) != 1 || mods[0].Rule.Action.Type != openflow.ActionDrop {
			t.Fatalf("wildcard block missed %s->h5: %v", src, mods)
		}
	}
}

func TestLoadBalancerSpreadsFlows(t *testing.T) {
	g := diamond(t)
	app := &LoadBalancer{Graph: g, GbpsPerFlow: 5}
	// First flow h2 -> h5 takes the direct s2-s5 link (shortest).
	mods1, err := app.PlanFlow(protocol.Event{
		ID: openflow.MsgID{Origin: "e", Seq: 1}, Kind: protocol.EventFlowRequest, Src: "h2", Dst: "h5"})
	if err != nil {
		t.Fatal(err)
	}
	if app.reserved[linkKey("s2", "s5")] != 5 {
		t.Fatalf("first flow did not reserve s2-s5 (reserved=%v)", app.reserved[linkKey("s2", "s5")])
	}
	// Second flow between the same endpoints must avoid the now-loaded
	// direct link (Fig. 3's balancing).
	mods2, err := app.PlanFlow(protocol.Event{
		ID: openflow.MsgID{Origin: "e", Seq: 2}, Kind: protocol.EventFlowRequest, Src: "h2", Dst: "h5"})
	if err == nil && len(mods2) > 0 {
		usedDirect := false
		for _, m := range mods2 {
			if m.Switch == "s2" && m.Rule.Action.NextHop == "s5" {
				usedDirect = true
			}
		}
		if usedDirect && app.reserved[linkKey("s2", "s5")] >= 10 {
			t.Error("load balancer over-provisioned the direct link")
		}
	}
	_ = mods1
}

func TestLoadBalancerTeardownReleases(t *testing.T) {
	g := diamond(t)
	app := &LoadBalancer{Graph: g, GbpsPerFlow: 5}
	ev := protocol.Event{ID: openflow.MsgID{Origin: "e", Seq: 1},
		Kind: protocol.EventFlowRequest, Src: "h2", Dst: "h5"}
	if _, err := app.PlanFlow(ev); err != nil {
		t.Fatal(err)
	}
	down := ev
	down.Kind = protocol.EventFlowTeardown
	if _, err := app.PlanFlow(down); err != nil {
		t.Fatal(err)
	}
	if r := app.reserved[linkKey("s2", "s5")]; r != 0 {
		t.Fatalf("reservation not released: %v", r)
	}
}

// BenchmarkPlanFlow plans every ordered host pair of the benchmark's pod
// (8 racks of 4 hosts) in turn, with per-pair rules as the benchmark's
// controllers install them.
func BenchmarkPlanFlow(b *testing.B) {
	cfg := topology.DefaultFabricConfig()
	cfg.RacksPerPod = 8
	cfg.HostsPerRack = 4
	g, err := topology.BuildSinglePod(cfg)
	if err != nil {
		b.Fatal(err)
	}
	app := &ShortestPath{Graph: g, PairRules: true}
	hosts := g.NodesOfKind(topology.KindHost)
	var evs []protocol.Event
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst {
				evs = append(evs, protocol.Event{
					ID:   openflow.MsgID{Origin: "tor", Seq: uint64(len(evs))},
					Kind: protocol.EventFlowRequest, Src: src.ID, Dst: dst.ID,
				})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.PlanFlow(evs[i%len(evs)]); err != nil {
			b.Fatal(err)
		}
	}
}
