package topology

import (
	"testing"
	"time"
)

func smallFabric() FabricConfig {
	cfg := DefaultFabricConfig()
	cfg.RacksPerPod = 4
	cfg.SpinesPerPlane = 2
	return cfg
}

func TestShortestPathBasics(t *testing.T) {
	g := NewGraph()
	for _, id := range []string{"a", "b", "c", "d"} {
		g.AddNode(Node{ID: id, Kind: KindToR})
	}
	mustLink(t, g, "a", "b", 1*time.Millisecond)
	mustLink(t, g, "b", "c", 1*time.Millisecond)
	mustLink(t, g, "a", "d", 1*time.Millisecond)
	mustLink(t, g, "d", "c", 5*time.Millisecond)

	path := g.ShortestPath("a", "c")
	want := []string{"a", "b", "c"}
	if !equalPath(path, want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	lat, err := g.PathLatency(path)
	if err != nil || lat != 2*time.Millisecond {
		t.Fatalf("latency = %v (%v), want 2ms", lat, err)
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{ID: "x", Kind: KindToR})
	if p := g.ShortestPath("x", "x"); !equalPath(p, []string{"x"}) {
		t.Fatalf("self path = %v", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{ID: "a", Kind: KindToR})
	g.AddNode(Node{ID: "b", Kind: KindToR})
	if p := g.ShortestPath("a", "b"); p != nil {
		t.Fatalf("expected nil path, got %v", p)
	}
}

func TestShortestPathDeterministicTieBreak(t *testing.T) {
	// Two equal-cost paths a-b-d and a-c-d: the lexicographically smaller
	// intermediate (b) must always win.
	g := NewGraph()
	for _, id := range []string{"a", "b", "c", "d"} {
		g.AddNode(Node{ID: id, Kind: KindToR})
	}
	mustLink(t, g, "a", "b", time.Millisecond)
	mustLink(t, g, "b", "d", time.Millisecond)
	mustLink(t, g, "a", "c", time.Millisecond)
	mustLink(t, g, "c", "d", time.Millisecond)
	for i := 0; i < 10; i++ {
		if p := g.ShortestPath("a", "d"); !equalPath(p, []string{"a", "b", "d"}) {
			t.Fatalf("iteration %d: path = %v, want [a b d]", i, p)
		}
	}
}

func TestRemoveLinkForcesReroute(t *testing.T) {
	g := NewGraph()
	for _, id := range []string{"a", "b", "c"} {
		g.AddNode(Node{ID: id, Kind: KindToR})
	}
	mustLink(t, g, "a", "c", time.Millisecond)
	mustLink(t, g, "a", "b", time.Millisecond)
	mustLink(t, g, "b", "c", time.Millisecond)
	if p := g.ShortestPath("a", "c"); len(p) != 2 {
		t.Fatalf("expected direct path, got %v", p)
	}
	g.RemoveLink("a", "c")
	if p := g.ShortestPath("a", "c"); !equalPath(p, []string{"a", "b", "c"}) {
		t.Fatalf("after failure path = %v, want [a b c]", p)
	}
}

func TestBuildSinglePodShape(t *testing.T) {
	cfg := smallFabric()
	g, err := BuildSinglePod(cfg)
	if err != nil {
		t.Fatalf("BuildSinglePod: %v", err)
	}
	tors := g.NodesOfKind(KindToR)
	edges := g.NodesOfKind(KindEdge)
	hosts := g.NodesOfKind(KindHost)
	if len(tors) != cfg.RacksPerPod {
		t.Errorf("ToRs = %d, want %d", len(tors), cfg.RacksPerPod)
	}
	if len(edges) != edgePerPod {
		t.Errorf("edges = %d, want %d", len(edges), edgePerPod)
	}
	if len(hosts) != cfg.RacksPerPod*cfg.HostsPerRack {
		t.Errorf("hosts = %d, want %d", len(hosts), cfg.RacksPerPod*cfg.HostsPerRack)
	}
	// Every ToR connects to every edge switch.
	for _, tor := range tors {
		seen := 0
		for _, e := range g.Neighbors(tor.ID) {
			if n, _ := g.Node(e.To); n.Kind == KindEdge {
				seen++
			}
		}
		if seen != edgePerPod {
			t.Errorf("%s connects to %d edges, want %d", tor.ID, seen, edgePerPod)
		}
	}
	// Intra-pod host-to-host path: h - tor - edge - tor - h (5 nodes).
	src := HostName(0, 0, 0, 0)
	dst := HostName(0, 0, 3, 0)
	p := g.ShortestPath(src, dst)
	if len(p) != 5 {
		t.Errorf("intra-pod path %v, want 5 nodes", p)
	}
	if sw := g.SwitchesOnPath(p); len(sw) != 3 {
		t.Errorf("switches on path = %v, want 3", sw)
	}
}

func TestBuildFabricInterPodPath(t *testing.T) {
	cfg := smallFabric()
	g := NewGraph()
	if err := AddFabric(g, cfg, 0, 2); err != nil {
		t.Fatalf("AddFabric: %v", err)
	}
	src := HostName(0, 0, 0, 0)
	dst := HostName(0, 1, 0, 0)
	p := g.ShortestPath(src, dst)
	if p == nil {
		t.Fatal("no inter-pod path")
	}
	// host-tor-edge-spine-edge-tor-host = 7 nodes.
	if len(p) != 7 {
		t.Errorf("inter-pod path has %d nodes (%v), want 7", len(p), p)
	}
	crossedSpine := false
	for _, id := range p {
		if n, _ := g.Node(id); n.Kind == KindSpine {
			crossedSpine = true
		}
	}
	if !crossedSpine {
		t.Error("inter-pod path avoided the spine layer")
	}
}

func TestBuildInterconnectedPods(t *testing.T) {
	cfg := InterconnectPodsConfig{
		Fabric: smallFabric(),
		Pods:   2,
	}
	g, err := BuildInterconnectedPods(cfg)
	if err != nil {
		t.Fatalf("BuildInterconnectedPods: %v", err)
	}
	p := g.ShortestPath(HostName(0, 0, 0, 0), HostName(0, 1, 2, 0))
	if p == nil {
		t.Fatal("pods are not connected")
	}
	viaIX := false
	for _, id := range p {
		if n, _ := g.Node(id); n.Kind == KindSpine && n.Pod == -1 {
			viaIX = true
		}
	}
	if !viaIX {
		t.Errorf("inter-pod path %v avoided interconnect switches", p)
	}
}

func TestBuildMultiDC(t *testing.T) {
	cfg := DefaultMultiDCConfig()
	cfg.Fabric = smallFabric()
	cfg.DataCenters = 3
	cfg.PodsPerDC = 2
	g, err := BuildMultiDC(cfg)
	if err != nil {
		t.Fatalf("BuildMultiDC: %v", err)
	}
	// Inter-DC latency must dominate intra-DC latency.
	intra := mustPathLatency(t, g, HostName(0, 0, 0, 0), HostName(0, 1, 0, 0))
	inter := mustPathLatency(t, g, HostName(0, 0, 0, 0), HostName(2, 0, 0, 0))
	if inter < 5*intra {
		t.Errorf("inter-DC latency %v should dominate intra-DC %v", inter, intra)
	}
	if inter < time.Millisecond {
		t.Errorf("inter-DC latency %v suspiciously small", inter)
	}
}

func TestBuildMultiDCValidation(t *testing.T) {
	cfg := DefaultMultiDCConfig()
	cfg.DataCenters = 0
	if _, err := BuildMultiDC(cfg); err == nil {
		t.Error("DataCenters=0 accepted")
	}
	cfg.DataCenters = len(TelekomCities) + 1
	if _, err := BuildMultiDC(cfg); err == nil {
		t.Error("too many data centers accepted")
	}
}

func TestWANLatencyScale(t *testing.T) {
	// Berlin-Muenchen is ~500 km; expect a few ms one-way.
	d := haversineKm(TelekomCities[0], TelekomCities[7])
	if d < 400 || d > 650 {
		t.Errorf("berlin-muenchen distance %.0f km out of expected range", d)
	}
	lat := WANLatency(d)
	if lat < 2*time.Millisecond || lat > 6*time.Millisecond {
		t.Errorf("WAN latency %v out of expected range", lat)
	}
}

func TestTelekomGraphConnected(t *testing.T) {
	cfg := DefaultMultiDCConfig()
	cfg.Fabric = smallFabric()
	cfg.Fabric.RacksPerPod = 1
	cfg.PodsPerDC = 1
	g, err := BuildMultiDC(cfg)
	if err != nil {
		t.Fatalf("BuildMultiDC: %v", err)
	}
	for dc := 1; dc < cfg.DataCenters; dc++ {
		if p := g.ShortestPath(CoreName(0), CoreName(dc)); p == nil {
			t.Errorf("no WAN path from dc0 to dc%d", dc)
		}
	}
}

func TestPathMinCapacity(t *testing.T) {
	g := NewGraph()
	for _, id := range []string{"a", "b", "c"} {
		g.AddNode(Node{ID: id, Kind: KindToR})
	}
	if err := g.AddLink("a", "b", time.Millisecond, 10); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink("b", "c", time.Millisecond, 40); err != nil {
		t.Fatal(err)
	}
	got, err := g.PathMinCapacity([]string{"a", "b", "c"})
	if err != nil || got != 10 {
		t.Fatalf("bottleneck = %v (%v), want 10", got, err)
	}
	if _, err := g.PathMinCapacity([]string{"a", "c"}); err == nil {
		t.Error("missing link accepted")
	}
}

func TestAddLinkUnknownNode(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{ID: "a", Kind: KindToR})
	if err := g.AddLink("a", "ghost", time.Millisecond, 1); err == nil {
		t.Error("link to unknown node accepted")
	}
}

func mustLink(t *testing.T, g *Graph, a, b string, lat time.Duration) {
	t.Helper()
	if err := g.AddLink(a, b, lat, 10); err != nil {
		t.Fatalf("AddLink(%s,%s): %v", a, b, err)
	}
}

func mustPathLatency(t *testing.T, g *Graph, src, dst string) time.Duration {
	t.Helper()
	p := g.ShortestPath(src, dst)
	if p == nil {
		t.Fatalf("no path %s -> %s", src, dst)
	}
	lat, err := g.PathLatency(p)
	if err != nil {
		t.Fatalf("PathLatency: %v", err)
	}
	return lat
}

func equalPath(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
