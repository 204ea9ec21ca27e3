// Package topology models the data-plane graphs Cicero is evaluated on:
// generic weighted graphs with deterministic shortest-path routing, the
// Facebook data-center fabric (server pods of top-of-rack and edge
// switches under spine planes, Fig. 10 of the paper), and a multi-data-
// center WAN following Deutsche Telekom's backbone from the Internet
// Topology Zoo.
package topology

import (
	"fmt"
	"sort"
	"time"
)

// Kind classifies a node's role in the fabric.
type Kind int

// Node kinds. Start at 1 so the zero value is invalid.
const (
	KindHost Kind = iota + 1
	KindToR
	KindEdge
	KindSpine
	KindCore
)

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindToR:
		return "tor"
	case KindEdge:
		return "edge"
	case KindSpine:
		return "spine"
	case KindCore:
		return "core"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is a device in the topology.
type Node struct {
	ID   string
	Kind Kind
	// DC, Pod and Rack locate the node; -1 when not applicable.
	DC   int
	Pod  int
	Rack int
}

// Edge is one direction of a link.
type Edge struct {
	To      string
	Latency time.Duration
	// GbpsCapacity is the link capacity in gigabits per second.
	GbpsCapacity float64

	to int // To's node number
}

// Graph is an undirected multigraph of nodes and links. Nodes are numbered
// in the order AddNode first sees them, and each node's links are kept
// sorted by neighbour id (parallel links in insertion order), so a path
// search walks them as stored.
//
// A Graph is read-only while a deployment runs: every controller of a
// deployment plans on the one core.Config.Graph, and any number of
// goroutines may call its read methods at once. AddNode, AddLink and
// RemoveLink must not race with anything; routing.Rerouter's RemoveLink
// inside PlanFlow is therefore sound only on the single-threaded simulator.
type Graph struct {
	index map[string]int // node id -> node number
	nodes []*Node        // by node number
	adj   [][]Edge       // by node number, each list sorted by Edge.To
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{index: make(map[string]int)}
}

// AddNode inserts a node; adding an existing id is a no-op.
func (g *Graph) AddNode(n Node) {
	if _, ok := g.index[n.ID]; ok {
		return
	}
	copied := n
	g.index[n.ID] = len(g.nodes)
	g.nodes = append(g.nodes, &copied)
	g.adj = append(g.adj, nil)
}

// AddLink inserts a bidirectional link between existing nodes.
func (g *Graph) AddLink(a, b string, latency time.Duration, gbps float64) error {
	ia, ok := g.index[a]
	if !ok {
		return fmt.Errorf("topology: unknown node %q", a)
	}
	ib, ok := g.index[b]
	if !ok {
		return fmt.Errorf("topology: unknown node %q", b)
	}
	g.insertEdge(ia, Edge{To: b, Latency: latency, GbpsCapacity: gbps, to: ib})
	g.insertEdge(ib, Edge{To: a, Latency: latency, GbpsCapacity: gbps, to: ia})
	return nil
}

// insertEdge adds e to node i's list behind every edge whose To sorts
// before or equal to e.To, keeping the list sorted and parallel links in
// insertion order.
func (g *Graph) insertEdge(i int, e Edge) {
	list := g.adj[i]
	at := sort.Search(len(list), func(k int) bool { return list[k].To > e.To })
	list = append(list, Edge{})
	copy(list[at+1:], list[at:])
	list[at] = e
	g.adj[i] = list
}

// RemoveLink severs the link between a and b (both directions); it models
// the hardware failures of the paper's Fig. 2 scenario.
func (g *Graph) RemoveLink(a, b string) {
	filter := func(id, drop string) {
		i, ok := g.index[id]
		if !ok {
			return
		}
		out := g.adj[i][:0]
		for _, e := range g.adj[i] {
			if e.To != drop {
				out = append(out, e)
			}
		}
		g.adj[i] = out
	}
	filter(a, b)
	filter(b, a)
}

// Node returns a node by id.
func (g *Graph) Node(id string) (*Node, bool) {
	i, ok := g.index[id]
	if !ok {
		return nil, false
	}
	return g.nodes[i], true
}

// Neighbors returns the outgoing edges of a node, sorted by neighbour id.
func (g *Graph) Neighbors(id string) []Edge {
	i, ok := g.index[id]
	if !ok {
		return nil
	}
	return g.adj[i]
}

// Nodes returns all nodes sorted by id for deterministic iteration.
func (g *Graph) Nodes() []*Node {
	out := append([]*Node(nil), g.nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NodesOfKind returns all nodes of the given kind, sorted by id.
func (g *Graph) NodesOfKind(kind Kind) []*Node {
	var out []*Node
	for _, n := range g.Nodes() {
		if n.Kind == kind {
			out = append(out, n)
		}
	}
	return out
}

// link returns the first link a->b in insertion order, or ok=false.
func (g *Graph) link(a, b string) (Edge, bool) {
	list := g.Neighbors(a)
	at := sort.Search(len(list), func(k int) bool { return list[k].To >= b })
	if at < len(list) && list[at].To == b {
		return list[at], true
	}
	return Edge{}, false
}

// LinkLatency returns the latency of the direct link a->b, or ok=false.
func (g *Graph) LinkLatency(a, b string) (time.Duration, bool) {
	e, ok := g.link(a, b)
	return e.Latency, ok
}

// queued is a path-search frontier entry: node n reached at (dist, hops).
type queued struct {
	dist time.Duration
	hops int32
	n    int32
}

// frontier is a binary min-heap of queued entries, ordered by latency,
// then hop count, then node id.
type frontier struct {
	items []queued
	nodes []*Node
}

func (f *frontier) before(q, r queued) bool {
	if q.dist != r.dist {
		return q.dist < r.dist
	}
	if q.hops != r.hops {
		return q.hops < r.hops
	}
	return f.nodes[q.n].ID < f.nodes[r.n].ID
}

func (f *frontier) push(q queued) {
	h := append(f.items, q)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !f.before(q, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = q
	f.items = h
}

func (f *frontier) pop() queued {
	h := f.items
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	i := 0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && f.before(h[r], h[child]) {
			child = r
		}
		if !f.before(h[child], last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if len(h) > 0 {
		h[i] = last
	}
	f.items = h
	return top
}

// reached is what a path search knows about one node. prev is the
// predecessor's node number plus one, so the zero value is "not reached".
type reached struct {
	dist time.Duration
	hops int32
	prev int32
	done bool
}

// ShortestPath returns the minimum-latency path from src to dst inclusive,
// breaking ties by hop count then lexicographic node id so routing is
// deterministic across runs and controllers (all Cicero controllers must
// compute identical updates for an event). It returns nil if dst is
// unreachable.
func (g *Graph) ShortestPath(src, dst string) []string {
	if src == dst {
		return []string{src}
	}
	s, ok := g.index[src]
	if !ok {
		return nil
	}
	d, ok := g.index[dst]
	if !ok {
		return nil
	}
	state := make([]reached, len(g.nodes))
	state[s].prev = int32(s) + 1
	q := frontier{items: make([]queued, 0, len(g.nodes)), nodes: g.nodes}
	q.push(queued{n: int32(s)})
	for len(q.items) > 0 {
		cur := q.pop()
		if state[cur.n].done {
			continue
		}
		state[cur.n].done = true
		if int(cur.n) == d {
			break
		}
		curID := g.nodes[cur.n].ID
		for _, e := range g.adj[cur.n] {
			next := &state[e.to]
			if next.done {
				continue
			}
			nd := cur.dist + e.Latency
			nh := cur.hops + 1
			// Of equal paths, the one through the smaller predecessor id
			// wins. Ids, never node numbers: numbering follows insertion
			// order, and distrib.GraphFromWire inserts in another order
			// than the builders here.
			if next.prev == 0 ||
				nd < next.dist ||
				(nd == next.dist && nh < next.hops) ||
				(nd == next.dist && nh == next.hops && curID < g.nodes[next.prev-1].ID) {
				*next = reached{dist: nd, hops: nh, prev: cur.n + 1}
				q.push(queued{dist: nd, hops: nh, n: int32(e.to)})
			}
		}
	}
	if state[d].prev == 0 {
		return nil
	}
	path := make([]string, state[d].hops+1)
	for i, n := len(path)-1, d; i >= 0; i, n = i-1, int(state[n].prev-1) {
		path[i] = g.nodes[n].ID
	}
	return path
}

// PathLatency sums the link latencies along a path.
func (g *Graph) PathLatency(path []string) (time.Duration, error) {
	var total time.Duration
	for i := 0; i+1 < len(path); i++ {
		lat, ok := g.LinkLatency(path[i], path[i+1])
		if !ok {
			return 0, fmt.Errorf("topology: no link %s-%s", path[i], path[i+1])
		}
		total += lat
	}
	return total, nil
}

// PathMinCapacity returns the bottleneck capacity (Gbps) along a path.
func (g *Graph) PathMinCapacity(path []string) (float64, error) {
	minCap := 0.0
	for i := 0; i+1 < len(path); i++ {
		e, ok := g.link(path[i], path[i+1])
		if !ok {
			return 0, fmt.Errorf("topology: no link %s-%s", path[i], path[i+1])
		}
		if minCap == 0 || e.GbpsCapacity < minCap {
			minCap = e.GbpsCapacity
		}
	}
	return minCap, nil
}

// SwitchesOnPath filters a host-to-host path down to its switches.
func (g *Graph) SwitchesOnPath(path []string) []string {
	var out []string
	for _, id := range path {
		if n, ok := g.Node(id); ok && n.Kind != KindHost {
			out = append(out, id)
		}
	}
	return out
}
