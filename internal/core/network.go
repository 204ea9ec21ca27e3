package core

import (
	"crypto/rand"
	"fmt"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/dataplane"
	"cicero/internal/fabric"
	"cicero/internal/metarepo"
	"cicero/internal/protocol"
	"cicero/internal/routing"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/dkg"
	"cicero/internal/tcrypto/pki"
	"cicero/internal/topology"
)

// Domain is one update domain: a slice of the data plane plus its own
// control plane, atomic-broadcast group, and threshold key.
type Domain struct {
	Index       int
	Members     []pki.Identity
	Controllers []*controlplane.Controller
	GroupKey    *bls.GroupKey
	Shares      []bls.KeyShare
	Switches    []string
	// Aggregator is the designated aggregator identity ("" in
	// switch-aggregation mode).
	Aggregator pki.Identity
	// MetaGenesis is the domain's threshold-signed root of trust (zero
	// value when Config.Metadata is off).
	MetaGenesis protocol.MetaEnvelope
	// Site is the graph node controllers of this domain are co-located
	// with (for latency derivation).
	Site string
}

// Network is an assembled deployment.
type Network struct {
	Cfg Config
	// Fab is the transport every component was built against; it is the
	// simnet Network below or a live backend (Config.Fabric).
	Fab fabric.Fabric
	// Sim and Net are the discrete-event simulator pair; both are nil
	// when the deployment runs on a live fabric.
	Sim       *simnet.Simulator
	Net       *simnet.Network
	Graph     *topology.Graph
	Domains   []*Domain
	Directory *pki.Directory
	Scheme    *bls.Scheme

	Switches map[string]*dataplane.Switch
	// domainOfSwitch caches switch -> domain.
	domainOfSwitch map[string]int
	// site maps every simnet node to its graph location.
	site map[string]string
	// distCache memoizes site-to-site fabric latencies.
	distCache map[[2]string]time.Duration

	// ctlConfigs and swConfigs retain each node's build-time configuration
	// (the durable provisioning: identity keys, threshold share, topology)
	// so RestartController/RestartSwitch can rebuild a crashed node with
	// empty volatile state.
	ctlConfigs map[pki.Identity]controlplane.Config
	swConfigs  map[string]dataplane.Config

	results []FlowResult
	flowSeq uint64
}

// ControllerName returns the canonical controller identity.
func ControllerName(domain, idx int) pki.Identity {
	return pki.Identity(fmt.Sprintf("dom%d/ctl/%d", domain, idx))
}

// Build assembles a deployment from the config.
func Build(cfg Config) (*Network, error) {
	cfg = cfg.Defaulted()
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: Graph is required")
	}
	if cfg.Protocol == controlplane.ProtoCicero && cfg.ControllersPerDomain < 4 {
		return nil, fmt.Errorf("core: cicero requires >= 4 controllers per domain, got %d", cfg.ControllersPerDomain)
	}
	n := &Network{
		Cfg:            cfg,
		Graph:          cfg.Graph,
		Directory:      pki.NewDirectory(),
		Scheme:         bls.NewScheme(cfg.Params),
		Switches:       make(map[string]*dataplane.Switch),
		domainOfSwitch: make(map[string]int),
		site:           make(map[string]string),
		distCache:      make(map[[2]string]time.Duration),
		ctlConfigs:     make(map[pki.Identity]controlplane.Config),
		swConfigs:      make(map[string]dataplane.Config),
	}
	if cfg.Fabric != nil {
		// Live backend: components construct against the provided fabric;
		// latency and jitter are whatever the real transport imposes.
		n.Fab = cfg.Fabric
	} else {
		sim := simnet.NewSimulator(cfg.Seed)
		net := simnet.NewNetwork(sim, cfg.LANLatency)
		net.Latency = n.latency
		net.JitterFrac = cfg.Jitter
		n.Sim, n.Net, n.Fab = sim, net, net
	}

	// Partition switches into domains.
	domainSwitches := make([][]string, cfg.NumDomains)
	for _, node := range cfg.Graph.Nodes() {
		if node.Kind == topology.KindHost {
			continue
		}
		dom := 0
		if cfg.DomainOf != nil {
			dom = cfg.DomainOf(node)
		}
		if dom < 0 || dom >= cfg.NumDomains {
			return nil, fmt.Errorf("core: DomainOf(%s) = %d out of range 0..%d", node.ID, dom, cfg.NumDomains-1)
		}
		domainSwitches[dom] = append(domainSwitches[dom], node.ID)
		n.domainOfSwitch[node.ID] = dom
		n.site[node.ID] = node.ID
	}

	// Peer-domain controller lists for event forwarding.
	peerDomains := make(map[int][]pki.Identity, cfg.NumDomains)
	for dom := 0; dom < cfg.NumDomains; dom++ {
		members := make([]pki.Identity, cfg.ControllersPerDomain)
		for i := range members {
			members[i] = ControllerName(dom, i+1)
		}
		peerDomains[dom] = members
	}

	domainOfSwitchFn := func(sw string) int { return n.domainOfSwitch[sw] }
	quorum := controlplane.CiceroQuorum(cfg.ControllersPerDomain)

	for dom := 0; dom < cfg.NumDomains; dom++ {
		d := &Domain{Index: dom, Members: peerDomains[dom], Switches: domainSwitches[dom]}
		if len(d.Switches) > 0 {
			d.Site = d.Switches[0]
		}
		// Threshold key material via DKG (no dealer ever knows the key).
		if cfg.Protocol == controlplane.ProtoCicero {
			gk, shares, err := dkg.Run(n.Scheme, rand.Reader, quorum, cfg.ControllersPerDomain)
			if err != nil {
				return nil, fmt.Errorf("core: domain %d DKG: %w", dom, err)
			}
			d.GroupKey = gk
			d.Shares = shares
		}

		// Controllers. Identity keys come first: the metadata genesis root
		// must delegate to every member key before any controller exists.
		var aggregator pki.Identity
		if cfg.Protocol == controlplane.ProtoCicero && cfg.Aggregation == controlplane.AggController {
			aggregator = d.Members[0]
		}
		ctlKeys := make([]*pki.KeyPair, len(d.Members))
		for i, id := range d.Members {
			keys, err := pki.NewKeyPair(rand.Reader, id)
			if err != nil {
				return nil, fmt.Errorf("core: keygen %s: %w", id, err)
			}
			n.Directory.MustRegister(keys)
			n.site[string(id)] = d.Site
			ctlKeys[i] = keys
		}
		if cfg.Metadata && cfg.Protocol == controlplane.ProtoCicero {
			root := metarepo.GenesisRoot(quorum, ctlKeys, int64(n.Fab.Now()), metaTTLNS(cfg))
			env, err := metarepo.SignRootDirect(n.Scheme, d.GroupKey, d.Shares, root)
			if err != nil {
				return nil, fmt.Errorf("core: domain %d metadata genesis: %w", dom, err)
			}
			d.MetaGenesis = env
		}
		for i, id := range d.Members {
			keys := ctlKeys[i]
			ctlCfg := controlplane.Config{
				ID:                id,
				Domain:            dom,
				Members:           d.Members,
				Net:               n.Fab,
				Cost:              cfg.Cost,
				Keys:              keys,
				Directory:         n.Directory,
				Protocol:          cfg.Protocol,
				Aggregation:       cfg.Aggregation,
				App:               n.newApp(),
				Sched:             cfg.Scheduler,
				PeerDomains:       clonePeers(peerDomains),
				Switches:          d.Switches,
				CryptoReal:        cfg.CryptoReal,
				Bootstrap:         i == 0,
				ViewChangeTimeout: cfg.ViewChangeTimeout,
				FailureDetector:   cfg.FailureDetector,
				BatchSize:         cfg.BatchSize,
				BatchDelay:        cfg.BatchDelay,
			}
			if cfg.NumDomains > 1 {
				ctlCfg.DomainOf = domainOfSwitchFn
			}
			if cfg.Protocol == controlplane.ProtoCicero {
				ctlCfg.Scheme = n.Scheme
				ctlCfg.GroupKey = d.GroupKey
				ctlCfg.Share = d.Shares[i]
				if cfg.Metadata {
					ctlCfg.Metadata = &controlplane.MetadataConfig{
						Genesis:         d.MetaGenesis,
						TTL:             cfg.MetadataTTL,
						TimestampTTL:    cfg.MetadataTimestampTTL,
						RefreshInterval: cfg.MetadataRefresh,
						RefreshHorizon:  cfg.MetadataRefreshHorizon,
					}
				}
			}
			ctl, err := controlplane.New(ctlCfg)
			if err != nil {
				return nil, fmt.Errorf("core: controller %s: %w", id, err)
			}
			n.ctlConfigs[id] = ctlCfg
			d.Controllers = append(d.Controllers, ctl)
		}

		// Switches.
		for _, swID := range d.Switches {
			keys, err := pki.NewKeyPair(rand.Reader, pki.Identity(swID))
			if err != nil {
				return nil, fmt.Errorf("core: keygen %s: %w", swID, err)
			}
			n.Directory.MustRegister(keys)
			mode := dataplane.ModeUnsigned
			if cfg.Protocol == controlplane.ProtoCicero {
				if cfg.Aggregation == controlplane.AggController {
					mode = dataplane.ModeAggregated
				} else {
					mode = dataplane.ModeThreshold
				}
			}
			swCfg := dataplane.Config{
				ID:             swID,
				Net:            n.Fab,
				Cost:           cfg.Cost,
				Mode:           mode,
				Keys:           keys,
				Directory:      n.Directory,
				Controllers:    d.Members,
				CryptoReal:     cfg.CryptoReal,
				ApplyHook:      cfg.SwitchApplyHook,
				BatchApplyHook: cfg.SwitchBatchHook,
			}
			if cfg.Protocol == controlplane.ProtoCicero {
				swCfg.Scheme = n.Scheme
				swCfg.GroupKey = d.GroupKey
				swCfg.Quorum = quorum
				if cfg.Metadata {
					swCfg.Metadata = &dataplane.MetadataConfig{Genesis: d.MetaGenesis}
				}
			}
			sw, err := dataplane.New(swCfg)
			if err != nil {
				return nil, fmt.Errorf("core: switch %s: %w", swID, err)
			}
			sw.Bootstrap(d.Members, aggregator, quorum)
			n.swConfigs[swID] = swCfg
			n.Switches[swID] = sw
		}
		d.Aggregator = aggregator
		n.Domains = append(n.Domains, d)
	}
	return n, nil
}

// metaTTLNS is the genesis root lifetime in fabric nanoseconds
// (mirrors the controlplane MetadataConfig default).
func metaTTLNS(cfg Config) int64 {
	if cfg.MetadataTTL > 0 {
		return int64(cfg.MetadataTTL)
	}
	return int64(time.Hour)
}

// newApp builds the routing application for one controller replica. Each
// replica gets its own instance so stateful apps stay replica-local.
func (n *Network) newApp() routing.App {
	if n.Cfg.AppFactory != nil {
		return n.Cfg.AppFactory()
	}
	return &routing.ShortestPath{Graph: n.Graph, PairRules: n.Cfg.PairRules}
}

// clonePeers deep-copies the peer-domain map (each controller mutates its
// own view on membership notices).
func clonePeers(in map[int][]pki.Identity) map[int][]pki.Identity {
	out := make(map[int][]pki.Identity, len(in))
	for k, v := range in {
		out[k] = append([]pki.Identity(nil), v...)
	}
	return out
}

// latency derives one-way message latency from the fabric: co-located
// nodes pay the LAN latency; remote pairs pay the fabric shortest-path
// latency plus the LAN hop.
func (n *Network) latency(from, to simnet.NodeID) time.Duration {
	sa, oka := n.site[string(from)]
	sb, okb := n.site[string(to)]
	if !oka || !okb {
		return -1 // default
	}
	if sa == sb {
		return n.Cfg.LANLatency
	}
	return n.fabricDist(sa, sb) + n.Cfg.LANLatency
}

// fabricDist memoizes shortest-path latency between graph sites.
func (n *Network) fabricDist(a, b string) time.Duration {
	key := [2]string{a, b}
	if a > b {
		key = [2]string{b, a}
	}
	if d, ok := n.distCache[key]; ok {
		return d
	}
	var d time.Duration
	if path := n.Graph.ShortestPath(a, b); path != nil {
		if lat, err := n.Graph.PathLatency(path); err == nil {
			d = lat
		}
	}
	n.distCache[key] = d
	return d
}

// SwitchCPUTotal sums simulated CPU time charged to all switches.
func (n *Network) SwitchCPUTotal() time.Duration {
	var total time.Duration
	for id := range n.Switches {
		total += n.Fab.BusyTotal(simnet.NodeID(id))
	}
	return total
}
