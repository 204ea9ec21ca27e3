package topology

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// refItem is a priority-queue entry of referenceShortestPath.
type refItem struct {
	id   string
	dist time.Duration
	hops int
}

type refQueue []refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	if q[i].hops != q[j].hops {
		return q[i].hops < q[j].hops
	}
	return q[i].id < q[j].id
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// referenceShortestPath is the search Graph.ShortestPath replaced, kept as
// its oracle: state in a string-keyed map, a container/heap queue, and
// each node's links copied and sorted by neighbour id at every pop. adj
// holds every node's links in insertion order, the way refAddLink and
// refRemoveLink maintain them.
func referenceShortestPath(adj map[string][]Edge, src, dst string) []string {
	if src == dst {
		return []string{src}
	}
	type state struct {
		dist time.Duration
		hops int
		prev string
		done bool
	}
	states := map[string]*state{src: {}}
	q := &refQueue{{id: src}}
	for q.Len() > 0 {
		cur := heap.Pop(q).(refItem)
		st := states[cur.id]
		if st.done {
			continue
		}
		st.done = true
		if cur.id == dst {
			break
		}
		edges := append([]Edge(nil), adj[cur.id]...)
		sort.Slice(edges, func(i, j int) bool { return edges[i].To < edges[j].To })
		for _, e := range edges {
			nd := cur.dist + e.Latency
			nh := cur.hops + 1
			next, ok := states[e.To]
			better := !ok ||
				nd < next.dist ||
				(nd == next.dist && nh < next.hops) ||
				(nd == next.dist && nh == next.hops && cur.id < next.prev)
			if ok && next.done {
				continue
			}
			if better {
				states[e.To] = &state{dist: nd, hops: nh, prev: cur.id}
				heap.Push(q, refItem{id: e.To, dist: nd, hops: nh})
			}
		}
	}
	if _, ok := states[dst]; !ok {
		return nil
	}
	var path []string
	for id := dst; ; id = states[id].prev {
		path = append(path, id)
		if id == src {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// testLink is one undirected link of a test graph.
type testLink struct {
	a, b string
	lat  time.Duration
	gbps float64
}

// refAddLink and refRemoveLink keep adjacency the way the graph once did:
// appended in insertion order, filtered in place.
func refAddLink(adj map[string][]Edge, l testLink) {
	adj[l.a] = append(adj[l.a], Edge{To: l.b, Latency: l.lat, GbpsCapacity: l.gbps})
	adj[l.b] = append(adj[l.b], Edge{To: l.a, Latency: l.lat, GbpsCapacity: l.gbps})
}

func refRemoveLink(adj map[string][]Edge, a, b string) {
	filter := func(list []Edge, drop string) []Edge {
		out := list[:0]
		for _, e := range list {
			if e.To != drop {
				out = append(out, e)
			}
		}
		return out
	}
	adj[a] = filter(adj[a], b)
	adj[b] = filter(adj[b], a)
}

// linksOf lists g's links once each, from the lesser end, in the order
// distrib.GraphToWire puts them on the wire: nodes by id, then each
// node's links as the graph stores them, then sorted by endpoints.
func linksOf(g *Graph) []testLink {
	var out []testLink
	for _, n := range g.Nodes() {
		for _, e := range g.Neighbors(n.ID) {
			if n.ID < e.To {
				out = append(out, testLink{a: n.ID, b: e.To, lat: e.Latency, gbps: e.GbpsCapacity})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].a != out[j].a {
			return out[i].a < out[j].a
		}
		return out[i].b < out[j].b
	})
	return out
}

// buildGraph inserts nodes, then links, in the order given.
func buildGraph(t testing.TB, nodes []Node, links []testLink) *Graph {
	t.Helper()
	g := NewGraph()
	for _, n := range nodes {
		g.AddNode(n)
	}
	for _, l := range links {
		if err := g.AddLink(l.a, l.b, l.lat, l.gbps); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// rebuilds returns g rebuilt twice from its own nodes and links: once in a
// seeded shuffled order with link ends swapped at random, once in
// distrib.GraphFromWire's order (nodes by id, links by endpoints).
func rebuilds(t testing.TB, g *Graph, seed int64) []*Graph {
	t.Helper()
	var nodes []Node
	for _, n := range g.Nodes() {
		nodes = append(nodes, *n)
	}
	links := linksOf(g)
	sorted := buildGraph(t, nodes, links)

	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for i := range links {
		if rng.Intn(2) == 0 {
			links[i].a, links[i].b = links[i].b, links[i].a
		}
	}
	return []*Graph{buildGraph(t, nodes, links), sorted}
}

// refAdjOf is the insertion-order adjacency of g's links as linksOf lists
// them.
func refAdjOf(g *Graph) map[string][]Edge {
	adj := make(map[string][]Edge)
	for _, l := range linksOf(g) {
		refAddLink(adj, l)
	}
	return adj
}

// checkAllPairs requires every graph in gs to return the reference path
// for every ordered pair of ids, unknown ones included.
func checkAllPairs(t testing.TB, name string, adj map[string][]Edge, ids []string, gs ...*Graph) {
	t.Helper()
	ids = append(ids, "ghost")
	for _, src := range ids {
		for _, dst := range ids {
			want := referenceShortestPath(adj, src, dst)
			for k, g := range gs {
				if got := g.ShortestPath(src, dst); !equalPath(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("%s (build %d): %s -> %s = %v, reference %v", name, k, src, dst, got, want)
				}
			}
		}
	}
}

func nodeIDs(g *Graph) []string {
	var ids []string
	for _, n := range g.Nodes() {
		ids = append(ids, n.ID)
	}
	return ids
}

// benchPod is the pod every benchmark workload runs on: 8 racks of 4
// hosts under 4 edge switches, 44 nodes.
func benchPod(t testing.TB) *Graph {
	t.Helper()
	cfg := DefaultFabricConfig()
	cfg.RacksPerPod = 8
	cfg.HostsPerRack = 4
	g, err := BuildSinglePod(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomGraph builds a seeded multigraph of 1 to 24 nodes whose ids do not
// sort in insertion order, with parallel links, self-loops, latencies of 0
// to 3 µs (so equal-latency ties abound) and some links removed again. It
// returns the graph and the reference adjacency built by the same steps.
func randomGraph(t testing.TB, seed int64) (*Graph, map[string][]Edge) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(24)
	g := NewGraph()
	adj := make(map[string][]Edge)
	ids := make([]string, n)
	for i, p := range rng.Perm(n) {
		ids[i] = fmt.Sprintf("%c%d", 'a'+rune(rng.Intn(3)), p)
		g.AddNode(Node{ID: ids[i], Kind: KindToR})
	}
	for k := rng.Intn(3 * n); k >= 0; k-- {
		a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]
		if rng.Intn(5) == 0 {
			g.RemoveLink(a, b)
			refRemoveLink(adj, a, b)
			continue
		}
		l := testLink{a: a, b: b, lat: time.Duration(rng.Intn(4)) * time.Microsecond, gbps: float64(1 + rng.Intn(3))}
		if err := g.AddLink(l.a, l.b, l.lat, l.gbps); err != nil {
			t.Fatal(err)
		}
		refAddLink(adj, l)
	}
	return g, adj
}

// TestShortestPathMatchesReference requires the indexed search to return
// exactly the paths of the map-and-container/heap search it replaced, on
// every builder's topology and on seeded random multigraphs, whatever
// order the nodes and links went in.
func TestShortestPathMatchesReference(t *testing.T) {
	fabric := NewGraph()
	if err := AddFabric(fabric, smallFabric(), 0, 3); err != nil {
		t.Fatal(err)
	}
	ix, err := BuildInterconnectedPods(InterconnectPodsConfig{
		Fabric: smallFabric(), Pods: 2, InterconnectSwitches: 4, EdgeInterconnect: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wanCfg := DefaultMultiDCConfig()
	wanCfg.Fabric = smallFabric()
	wanCfg.DataCenters = 4
	wanCfg.PodsPerDC = 2
	wan, err := BuildMultiDC(wanCfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{
		"bench-pod":    benchPod(t),
		"fabric":       fabric,
		"interconnect": ix,
		"telekom":      wan,
	} {
		checkAllPairs(t, name, refAdjOf(g), nodeIDs(g), append([]*Graph{g}, rebuilds(t, g, 1)...)...)
	}

	for seed := int64(0); seed < 300; seed++ {
		g, adj := randomGraph(t, seed)
		checkAllPairs(t, fmt.Sprintf("random/%d", seed), adj, nodeIDs(g), append([]*Graph{g}, rebuilds(t, g, seed)...)...)
	}
}

// FuzzShortestPath decodes a byte string into a graph of at most 24 nodes
// and requires the indexed search to agree with the reference on every
// ordered pair. data[0] picks the node count and data[1] the id order;
// every further three bytes (a, b, l) add a link a-b of l%4 µs, or, when
// l's top bit is set, remove every link between a and b.
func FuzzShortestPath(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 1, 1, 2, 1, 0, 3, 1, 3, 2, 1})
	f.Add([]byte{6, 9, 0, 1, 0, 0, 1, 0, 1, 2, 2, 0, 2, 0x80, 2, 3, 1, 3, 4, 0, 4, 5, 3})
	f.Add([]byte{24, 255, 0, 23, 1, 5, 5, 0, 7, 9, 2, 9, 7, 2, 7, 9, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%24
		ids := make([]string, n)
		for i, p := range rand.New(rand.NewSource(int64(data[1]))).Perm(n) {
			ids[i] = string(rune('a' + p))
		}
		g := NewGraph()
		for _, id := range ids {
			g.AddNode(Node{ID: id, Kind: KindToR})
		}
		adj := make(map[string][]Edge)
		for rest := data[2:]; len(rest) >= 3; rest = rest[3:] {
			a, b := ids[int(rest[0])%n], ids[int(rest[1])%n]
			if rest[2]&0x80 != 0 {
				g.RemoveLink(a, b)
				refRemoveLink(adj, a, b)
				continue
			}
			l := testLink{a: a, b: b, lat: time.Duration(rest[2]%4) * time.Microsecond, gbps: 1}
			if err := g.AddLink(l.a, l.b, l.lat, l.gbps); err != nil {
				t.Fatal(err)
			}
			refAddLink(adj, l)
		}
		checkAllPairs(t, "fuzz", adj, ids, g)
	})
}

// TestShortestPathConcurrentReaders plans every pair of the bench pod from
// eight goroutines on one shared graph, as a deployment's controllers do;
// run it under -race.
func TestShortestPathConcurrentReaders(t *testing.T) {
	g := benchPod(t)
	ids := nodeIDs(g)
	want := make(map[[2]string][]string)
	for _, src := range ids {
		for _, dst := range ids {
			want[[2]string{src, dst}] = g.ShortestPath(src, dst)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, src := range ids {
				for _, dst := range ids {
					if got := g.ShortestPath(src, dst); !equalPath(got, want[[2]string{src, dst}]) {
						t.Errorf("%s -> %s = %v, want %v", src, dst, got, want[[2]string{src, dst}])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestNeighborsSortedByID checks the adjacency invariant the search relies
// on to walk links without copying: sorted by neighbour id, parallel links
// in insertion order, also after a removal.
func TestNeighborsSortedByID(t *testing.T) {
	g := NewGraph()
	for _, id := range []string{"m", "c", "x", "a"} {
		g.AddNode(Node{ID: id, Kind: KindToR})
	}
	mustLink(t, g, "m", "x", 3*time.Microsecond)
	mustLink(t, g, "m", "c", 1*time.Microsecond)
	mustLink(t, g, "m", "x", 2*time.Microsecond)
	mustLink(t, g, "a", "m", 4*time.Microsecond)
	g.RemoveLink("m", "c")
	var got []string
	for _, e := range g.Neighbors("m") {
		got = append(got, fmt.Sprintf("%s/%v", e.To, e.Latency))
	}
	if want := []string{"a/4µs", "x/3µs", "x/2µs"}; !equalPath(got, want) {
		t.Fatalf("neighbors of m = %v, want %v", got, want)
	}
	if lat, ok := g.LinkLatency("m", "x"); !ok || lat != 3*time.Microsecond {
		t.Fatalf("LinkLatency(m, x) = %v %v, want the first link inserted, 3µs", lat, ok)
	}
}

// BenchmarkShortestPath plans every ordered host pair of the bench pod in
// turn.
func BenchmarkShortestPath(b *testing.B) {
	g := benchPod(b)
	var pairs [][2]string
	for _, src := range g.NodesOfKind(KindHost) {
		for _, dst := range g.NodesOfKind(KindHost) {
			if src != dst {
				pairs = append(pairs, [2]string{src.ID, dst.ID})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if g.ShortestPath(p[0], p[1]) == nil {
			b.Fatal("no path")
		}
	}
}
