// Package core assembles complete Cicero deployments on the simulator:
// topology, domains with their control planes and threshold keys, the
// data-plane switches, and the flow driver that measures the paper's
// metrics (flow completion time, update time, per-domain event counts,
// switch CPU utilization).
//
// It is the implementation behind the repository's public facade (package
// cicero at the module root).
package core

import (
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/routing"
	"cicero/internal/scheduler"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/topology"
)

// Config assembles a deployment.
type Config struct {
	// Graph is the data-plane topology (required).
	Graph *topology.Graph

	// Protocol selects centralized / crash-tolerant / Cicero.
	Protocol controlplane.Protocol
	// Aggregation selects switch- or controller-side aggregation (§4.2);
	// it only applies to ProtoCicero.
	Aggregation controlplane.Aggregation

	// ControllersPerDomain sizes each domain's control plane (paper: 4;
	// a centralized deployment forces 1).
	ControllersPerDomain int

	// DomainOf maps a topology node to its update domain (§3.3). Nil
	// puts everything in domain 0. Hosts inherit their switch's domain
	// implicitly — only switches matter.
	DomainOf func(n *topology.Node) int
	// NumDomains is the number of domains DomainOf maps onto.
	NumDomains int

	// Scheduler orders updates; nil defaults to the paper's reverse-path
	// scheduler.
	Scheduler scheduler.Scheduler
	// AppFactory overrides the routing application (default: shortest
	// path). It is called once per controller replica so stateful apps
	// stay replica-local.
	AppFactory func() routing.App
	// Jitter adds uniform random latency jitter as a fraction of each
	// link's latency, making transient-inconsistency windows observable.
	Jitter float64
	// PairRules makes the routing app install per-flow-pair rules, needed
	// by the unamortized setup/teardown mode.
	PairRules bool

	// Cost is the simulated-time cost model; zero value charges nothing.
	Cost protocol.CostModel
	// CryptoReal executes real signatures end to end.
	CryptoReal bool
	// Params selects the pairing parameter set; nil defaults to Fast254.
	Params *pairing.Params

	// Seed drives all simulation randomness.
	Seed int64

	// Fabric, when non-nil, is the transport the deployment is assembled
	// on (a live backend from internal/livenet). Nil builds the default
	// deterministic simulator, wired with the topology-derived latency
	// model. Live fabrics ignore Jitter and the simulated
	// parts of Cost (real work takes real time there), and the
	// simulator-bound drivers (RunFlows, MeasureUpdateTime) are
	// unavailable. Network.On, Settle, Tables and Ledgers drive and read
	// a deployment on either.
	Fabric fabric.Fabric

	// ViewChangeTimeout bounds atomic-broadcast stalls (liveness under
	// controller failure).
	ViewChangeTimeout time.Duration
	// FailureDetector enables heartbeats when non-nil.
	FailureDetector *controlplane.FailureDetectorConfig

	// SwitchApplyHook, when set, is installed on every switch and observes
	// each update apply decision (used by the chaos invariant checkers).
	SwitchApplyHook func(sw string, id openflow.MsgID, phase uint64, mods []openflow.FlowMod, valid bool)
	// SwitchBatchHook, when set, additionally observes batch-amortized
	// update decisions with root and inclusion proof (the chaos engine's
	// Merkle-proof invariant attaches here).
	SwitchBatchHook func(sw string, m protocol.MsgBatchUpdate, valid bool)

	// BatchSize > 1 batches the atomic broadcast and amortizes one
	// threshold signature over each batch's Merkle root (ProtoCicero with
	// switch aggregation). <= 1 keeps the per-update path bit-identically.
	BatchSize int
	// BatchDelay bounds how long a partial batch waits before ordering.
	BatchDelay time.Duration

	// Metadata enables the TUF-style signed-metadata plane (ProtoCicero
	// only): each domain gets a threshold-signed root of trust at build
	// time, controllers publish policy targets/snapshot/timestamp sets
	// through the atomic broadcast, and every controller and switch keeps
	// a trusted store that enforces signatures, version monotonicity, and
	// freshness before config adoption (see internal/metarepo).
	Metadata bool
	// MetadataTTL bounds targets/snapshot lifetime (0: metarepo default).
	MetadataTTL time.Duration
	// MetadataTimestampTTL bounds the freshness proof (0: default).
	MetadataTimestampTTL time.Duration
	// MetadataRefresh is the leader's timestamp re-mint interval
	// (0: half the timestamp TTL).
	MetadataRefresh time.Duration
	// MetadataRefreshHorizon bounds the periodic refresh loop in simulated
	// time: > 0 refreshes until the horizon, < 0 refreshes forever, 0
	// disables the loop (timestamps are still minted per publication).
	MetadataRefreshHorizon time.Duration
}

// Defaulted returns the config with defaults applied.
func (c Config) Defaulted() Config {
	if c.Protocol == 0 {
		c.Protocol = controlplane.ProtoCicero
	}
	if c.Aggregation == 0 {
		c.Aggregation = controlplane.AggSwitch
	}
	if c.ControllersPerDomain == 0 {
		c.ControllersPerDomain = 4
	}
	if c.Protocol == controlplane.ProtoCentralized {
		c.ControllersPerDomain = 1
	}
	if c.NumDomains == 0 {
		c.NumDomains = 1
	}
	if c.Scheduler == nil {
		c.Scheduler = scheduler.ReversePath{}
	}
	if c.Params == nil {
		c.Params = pairing.Fast254()
	}
	if c.ViewChangeTimeout == 0 {
		c.ViewChangeTimeout = 50 * time.Millisecond
	}
	return c
}

// newApp builds the routing application for one controller instance. Each
// gets its own so stateful apps stay replica-local.
func (c Config) newApp() routing.App {
	if c.AppFactory != nil {
		return c.AppFactory()
	}
	return &routing.ShortestPath{Graph: c.Graph, PairRules: c.PairRules}
}

// ByPod maps switches to one domain per (dc, pod) pair, the paper's §6.3
// deployment. Fabric-level nodes (spines, interconnects, cores) go to the
// dedicated interconnect domain, which is the last domain index.
func ByPod(podsPerDC, interconnectDomain int) func(n *topology.Node) int {
	return func(n *topology.Node) int {
		if n.Pod < 0 {
			return interconnectDomain
		}
		return n.DC*podsPerDC + n.Pod
	}
}
