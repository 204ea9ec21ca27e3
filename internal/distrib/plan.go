// Package distrib turns the livenet TCP backend into a true distributed
// deployment: one OS process per controller and switch (cmd/cicero-node),
// a supervisor that plans key material, launches and monitors the
// processes, kills them with SIGKILL, restarts them through the protocol
// recovery paths, and imposes socket-level partitions via per-node proxy
// listeners. Cross-process state is compared at convergence through
// signed snapshot messages (audit hash-chain digests, flow tables), and
// every process writes a structured trace ordered by a shared Lamport
// clock so cmd/cicero-trace can merge them into one causal timeline.
package distrib

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"slices"
	"sort"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/pki"
	"cicero/internal/topology"
)

// DriverID is the supervisor's own node id on the fabric: node processes
// hello it at boot and send it snapshots and flow completions.
const DriverID = "distrib/driver"

// Deployment is a planned deployment: core's provisioning for one config,
// packed into a signed bundle per node, plus the deployment trust anchor.
type Deployment struct {
	// Cfg is the defaulted config Plan provisioned; Prov what core
	// returned for it, and Domain its only domain (members, switches,
	// quorum).
	Cfg  core.Config
	Prov *core.Provisioning
	*core.Domain
	// Bundles maps every node id to its provisioning bundle.
	Bundles map[string]protocol.NodeBundle
	// DeployPub is the trust anchor node processes verify bundles
	// against; the private half stays with the supervisor.
	DeployPub  ed25519.PublicKey
	deployPriv ed25519.PrivateKey
}

// NodeIDs returns every planned node id, controllers first, in stable
// order.
func (d *Deployment) NodeIDs() []string {
	ids := make([]string, 0, len(d.Members)+len(d.Switches))
	for _, m := range d.Members {
		ids = append(ids, string(m))
	}
	return append(ids, d.Switches...)
}

// Plan provisions the deployment cfg describes — core.Provision, the act
// core.Build performs in process — and packs each node's part into a
// bundle under a fresh deployment signing key. A bundle carries the graph,
// the aggregation mode (as the aggregator), batching, the view-change
// timeout and the metadata root of cfg; a node process runs the Cicero
// protocol with real crypto on the default routing app and scheduler, one
// domain, so the rest of cfg describes only the in-process reference.
func Plan(cfg core.Config) (*Deployment, error) {
	if cfg.ViewChangeTimeout == 0 {
		// core's default suits virtual time. Wall-clock deployments share
		// the live chaos plane's: long enough for scheduling hiccups, so
		// one message lost to a partition window costs a view change, not
		// the broadcast.
		cfg.ViewChangeTimeout = 2 * time.Second
	}
	cfg = cfg.Defaulted()
	if cfg.Protocol != controlplane.ProtoCicero || cfg.NumDomains != 1 {
		return nil, fmt.Errorf("distrib: a bundle provisions one Cicero domain, not protocol %v over %d domains", cfg.Protocol, cfg.NumDomains)
	}
	// Issued at fabric time 0: a node process counts time from its own start.
	prov, err := core.Provision(cfg, 0)
	if err != nil {
		return nil, err
	}
	deployPub, deployPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("distrib: deployment key: %w", err)
	}
	dep := &Deployment{
		Cfg:        cfg,
		Prov:       prov,
		Domain:     prov.Domains[0],
		DeployPub:  deployPub,
		deployPriv: deployPriv,
	}
	if len(dep.Switches) == 0 {
		return nil, fmt.Errorf("distrib: graph has no switches")
	}
	dep.Bundles = pack(cfg, prov, dep.NodeIDs())
	return dep, nil
}

// pack writes what each of the nodes holds of p, and what its process needs
// of cfg, into a bundle per node.
func pack(cfg core.Config, p *core.Provisioning, nodes []string) map[string]protocol.NodeBundle {
	d := p.Domains[0]
	common := protocol.NodeBundle{
		Role:                protocol.RoleSwitch,
		Domain:              d.Index,
		Members:             d.Members,
		Switches:            d.Switches,
		Quorum:              d.Quorum,
		Aggregator:          d.Aggregator,
		Directory:           make(map[pki.Identity][]byte),
		GroupKey:            d.GroupKey,
		BatchSize:           cfg.BatchSize,
		BatchDelayNS:        int64(cfg.BatchDelay),
		ViewChangeTimeoutNS: int64(cfg.ViewChangeTimeout),
		MetaGenesis:         d.MetaGenesis,
	}
	for who, pub := range p.Directory.Entries() {
		common.Directory[who] = pub
	}
	common.GraphNodes, common.GraphLinks = GraphToWire(cfg.Graph)
	bundles := make(map[string]protocol.NodeBundle, len(nodes))
	for _, id := range nodes {
		b := common
		b.ID = id
		b.KeySeed = p.Keys[pki.Identity(id)].Seed()
		if slot := slices.Index(d.Members, pki.Identity(id)); slot >= 0 {
			b.Role = protocol.RoleController
			b.Slot = slot
			b.Share = d.Shares[slot]
		}
		bundles[id] = b
	}
	return bundles
}

// unpack is pack's inverse, run on a verified bundle and the parameter set
// it was encoded under: the provisioning a node process holds — its own
// key and share, everything public about its domain — and the config it
// boots under.
func unpack(b *protocol.NodeBundle, params *pairing.Params) (core.Config, *core.Provisioning, error) {
	graph, err := GraphFromWire(b.GraphNodes, b.GraphLinks)
	if err != nil {
		return core.Config{}, nil, err
	}
	cfg := core.Config{
		Graph:             graph,
		Protocol:          controlplane.ProtoCicero,
		Aggregation:       controlplane.AggSwitch,
		Cost:              protocol.Calibrated(),
		CryptoReal:        true,
		Params:            params,
		ViewChangeTimeout: time.Duration(b.ViewChangeTimeoutNS),
		BatchSize:         b.BatchSize,
		BatchDelay:        time.Duration(b.BatchDelayNS),
		// The bundle carries only the root of trust; everything below it
		// arrives through the verified distribution path.
		Metadata: b.MetaGenesis.Role != "",
	}
	if b.Aggregator != "" {
		cfg.Aggregation = controlplane.AggController
	}
	cfg = cfg.Defaulted()
	keys, err := pki.KeyPairFromSeed(pki.Identity(b.ID), b.KeySeed)
	if err != nil {
		return cfg, nil, err
	}
	d := &core.Domain{
		Index:       b.Domain,
		Members:     b.Members,
		Switches:    b.Switches,
		Quorum:      b.Quorum,
		Aggregator:  b.Aggregator,
		GroupKey:    b.GroupKey,
		MetaGenesis: b.MetaGenesis,
	}
	switch b.Role {
	case protocol.RoleController:
		if b.Slot < 0 || b.Slot >= len(b.Members) || b.Members[b.Slot] != keys.ID {
			return cfg, nil, fmt.Errorf("distrib: bundle %s: slot %d is not its place in %v", b.ID, b.Slot, b.Members)
		}
		d.Shares = make([]bls.KeyShare, len(b.Members))
		d.Shares[b.Slot] = b.Share
	case protocol.RoleSwitch:
	default:
		return cfg, nil, fmt.Errorf("distrib: bundle role %q unknown", b.Role)
	}
	p := &core.Provisioning{
		Scheme:    bls.NewScheme(cfg.Params),
		Directory: pki.NewDirectory(),
		Domains:   []*core.Domain{d},
		Keys:      map[pki.Identity]*pki.KeyPair{keys.ID: keys},
	}
	for id, pub := range b.Directory {
		if err := p.Directory.Register(id, pub); err != nil {
			return cfg, nil, err
		}
	}
	return cfg, p, nil
}

// GraphToWire serializes a topology graph into the bundle's explicit
// node/link lists (each undirected link once, in stable order).
func GraphToWire(g *topology.Graph) ([]protocol.WireGraphNode, []protocol.WireGraphLink) {
	var nodes []protocol.WireGraphNode
	for _, n := range g.Nodes() {
		nodes = append(nodes, protocol.WireGraphNode{
			ID: n.ID, Kind: int(n.Kind), DC: n.DC, Pod: n.Pod, Rack: n.Rack,
		})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	var links []protocol.WireGraphLink
	for _, n := range nodes {
		for _, e := range g.Neighbors(n.ID) {
			if n.ID >= e.To {
				continue // each undirected link once, from its lesser end
			}
			links = append(links, protocol.WireGraphLink{
				A: n.ID, B: e.To, LatencyNS: int64(e.Latency), Gbps: e.GbpsCapacity,
			})
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
	return nodes, links
}

// GraphFromWire rebuilds the topology graph a bundle describes.
func GraphFromWire(nodes []protocol.WireGraphNode, links []protocol.WireGraphLink) (*topology.Graph, error) {
	g := topology.NewGraph()
	for _, n := range nodes {
		g.AddNode(topology.Node{
			ID: n.ID, Kind: topology.Kind(n.Kind), DC: n.DC, Pod: n.Pod, Rack: n.Rack,
		})
	}
	for _, l := range links {
		if err := g.AddLink(l.A, l.B, time.Duration(l.LatencyNS), l.Gbps); err != nil {
			return nil, fmt.Errorf("distrib: graph link %s-%s: %w", l.A, l.B, err)
		}
	}
	return g, nil
}
