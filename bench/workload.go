package main

import (
	"fmt"
	"math/rand"
	"sort"

	"cicero/internal/topology"
)

// workload is one fixed traffic shape. Every workload runs the same
// deployment (4 controllers, one pod of 8 racks x 4 hosts = 12 switches)
// under a closed loop of logical clients; they differ in how many clients
// press on it, whether ordering and signing are batched, and which live
// backend carries the messages.
type workload struct {
	Name string
	Why  string
	// Backend is the live fabric: "inproc" or "tcp".
	Backend string
	// Clients is the closed-loop client count.
	Clients int
	// BatchSize > 1 turns on batched ordering and batch-amortized signing.
	BatchSize int
	// Cycles is the measured install+teardown cycles per client in one
	// round. It is fixed so a round applies an exactly repeating number of
	// updates; the run length decides only how many rounds are run.
	Cycles int
	// Sequential drains the fabric between operations, so exactly one
	// operation's messages are ever in flight. Only then is the audit
	// chain order deterministic and checkable against the simulator.
	Sequential bool
	// Central swaps Cicero for the single-controller baseline (no atomic
	// broadcast, no threshold crypto); only the per-layer floor uses it.
	Central bool
}

// warmupCycles run on every fresh deployment before measuring: they dial
// the tcp links, fill the Lagrange and verification caches and grow the
// mailboxes.
const warmupCycles = 2

// maxBatchedSlots bounds the BFT slots of one batched round. A switch
// keeps at most dataplane.maxPendingBatches (512) batch-root pools and
// never retires verified ones; past that it evicts the in-flight pool and
// every client hangs. Rounds are sized to stay clear of it and fail
// loudly otherwise (see README, "sustained-load hang").
const maxBatchedSlots = 400

// workloads is the benchmark of record, in reporting order.
var workloads = []workload{
	{
		Name:       "seq-inproc-b1",
		Why:        "1 client, no batching: unloaded critical path (3 BFT phases, then sign/verify/ack per path hop); tcrypto and bft dominate, batching and transport do nothing",
		Backend:    "inproc",
		Clients:    1,
		BatchSize:  1,
		Cycles:     80,
		Sequential: true,
	},
	{
		Name:      "load-inproc-b1",
		Why:       "16 clients, no batching: CPU-saturated per-update path, one pairing per update, tcrypto dominates; bypasses batching, so a batching or codec change should not move it",
		Backend:   "inproc",
		Clients:   16,
		BatchSize: 1,
		Cycles:    10,
	},
	{
		Name:      "load-inproc-b32",
		Why:       "32 clients, batch 32: crypto amortised, so bft batching, the controller serial loop, Merkle/Ed25519 checks and the JSON codec dominate; a tcrypto speed-up should barely move it",
		Backend:   "inproc",
		Clients:   32,
		BatchSize: 32,
		Cycles:    12,
	},
	{
		Name:      "load-tcp-b32",
		Why:       "same operations as load-inproc-b32 over loopback tcp: the difference is the cost of livenet.TCP framing, sockets and the codec on a real wire",
		Backend:   "tcp",
		Clients:   32,
		BatchSize: 32,
		Cycles:    10,
	},
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// benchTopology is the data plane every workload runs on.
func benchTopology() (*topology.Graph, error) {
	cfg := topology.DefaultFabricConfig()
	cfg.RacksPerPod = 8
	cfg.HostsPerRack = 4
	return topology.BuildSinglePod(cfg)
}

// hostPair is one flow's endpoints with the switches its rules land on,
// in path order (ingress first).
type hostPair struct {
	Src, Dst string
	Path     []string
}

// usablePairs lists every ordered host pair whose path crosses at least
// one switch, in a canonical order.
func usablePairs(g *topology.Graph) []hostPair {
	var hosts []string
	for _, n := range g.NodesOfKind(topology.KindHost) {
		hosts = append(hosts, n.ID)
	}
	sort.Strings(hosts)
	var out []hostPair
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			sw := g.SwitchesOnPath(g.ShortestPath(src, dst))
			if len(sw) == 0 {
				continue
			}
			out = append(out, hostPair{Src: src, Dst: dst, Path: sw})
		}
	}
	return out
}

// opList is one round's inputs: for each client, the disjoint list of
// pairs it cycles through.
type opList [][]hostPair

// makeOps derives a round's operation list from the seed alone: a seeded
// shuffle of all pairs, dealt to the clients in equal disjoint shares.
// Disjoint shares mean no two clients ever touch the same rule, so no
// operation can fail because of another.
func makeOps(pairs []hostPair, clients int, seed int64, round int) (opList, error) {
	share := len(pairs) / clients
	if share == 0 {
		return nil, fmt.Errorf("%d pairs cannot feed %d clients", len(pairs), clients)
	}
	shuffled := append([]hostPair(nil), pairs...)
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	ops := make(opList, clients)
	for c := range ops {
		ops[c] = shuffled[c*share : (c+1)*share]
	}
	return ops, nil
}

// pairAt is the pair a client uses on its n-th cycle (lists wrap; a pair
// is torn down before its client can reach it again).
func (o opList) pairAt(client, cycle int) hostPair {
	list := o[client]
	return list[cycle%len(list)]
}

// expectedUpdates is the number of switch-applied updates the cycles
// [from, to) of every client must produce: one rule add and one rule
// delete on each switch of each pair's path.
func (o opList) expectedUpdates(from, to int) uint64 {
	var total uint64
	for c := range o {
		for cycle := from; cycle < to; cycle++ {
			total += 2 * uint64(len(o.pairAt(c, cycle).Path))
		}
	}
	return total
}
