package topology

import (
	"fmt"
	"time"
)

// FabricConfig parametrizes the Facebook data-center fabric of the paper's
// Fig. 10: server pods of racks whose top-of-rack switches connect to four
// edge switches, with edge switches uplinked to spine planes that
// interconnect pods.
type FabricConfig struct {
	// RacksPerPod is the number of racks (each with one ToR switch) in a
	// server pod. The paper uses 40.
	RacksPerPod int
	// SpinesPerPlane is the number of spine switches in each spine plane;
	// there are edgePerPod planes, and pod edge switch k uplinks to every
	// spine in plane k.
	SpinesPerPlane int
	// HostsPerRack is the number of (aggregate) host endpoints attached to
	// each ToR; flows originate and terminate at hosts.
	HostsPerRack int
}

// The fabric's fixed shape: four edge switches atop each pod (as in the
// paper), and each tier's link latency, in the tens of microseconds within
// a data center, and capacity in Gbps.
const (
	edgePerPod = 4

	hostToRLatency   = 20 * time.Microsecond
	torEdgeLatency   = 40 * time.Microsecond
	edgeSpineLatency = 60 * time.Microsecond

	torGbps   = 40
	spineGbps = 100
)

// HostGbps is the capacity of every host's link to its ToR: the host NIC,
// which caps a single flow's rate.
const HostGbps = 10

// DefaultFabricConfig mirrors the paper's single-pod setup: 40 racks of
// one host each, four spines per plane.
func DefaultFabricConfig() FabricConfig {
	return FabricConfig{
		RacksPerPod:    40,
		SpinesPerPlane: 4,
		HostsPerRack:   1,
	}
}

// HostName returns the canonical host id for (dc, pod, rack, host).
func HostName(dc, pod, rack, host int) string {
	return fmt.Sprintf("d%d-p%d-r%d-h%d", dc, pod, rack, host)
}

// ToRName returns the canonical ToR switch id for (dc, pod, rack).
func ToRName(dc, pod, rack int) string {
	return fmt.Sprintf("d%d-p%d-tor%d", dc, pod, rack)
}

// EdgeName returns the canonical edge switch id for (dc, pod, idx).
func EdgeName(dc, pod, idx int) string {
	return fmt.Sprintf("d%d-p%d-edge%d", dc, pod, idx)
}

// SpineName returns the canonical spine switch id for (dc, plane, idx).
func SpineName(dc, plane, idx int) string {
	return fmt.Sprintf("d%d-spine%d-%d", dc, plane, idx)
}

// CoreName returns the canonical WAN core router id for a data center.
func CoreName(dc int) string {
	return fmt.Sprintf("d%d-core", dc)
}

// AddPod adds one server pod (hosts, ToRs, edge switches and their links)
// for data center dc to the graph.
func AddPod(g *Graph, cfg FabricConfig, dc, pod int) error {
	for e := 0; e < edgePerPod; e++ {
		g.AddNode(Node{ID: EdgeName(dc, pod, e), Kind: KindEdge, DC: dc, Pod: pod, Rack: -1})
	}
	for r := 0; r < cfg.RacksPerPod; r++ {
		tor := ToRName(dc, pod, r)
		g.AddNode(Node{ID: tor, Kind: KindToR, DC: dc, Pod: pod, Rack: r})
		for h := 0; h < cfg.HostsPerRack; h++ {
			host := HostName(dc, pod, r, h)
			g.AddNode(Node{ID: host, Kind: KindHost, DC: dc, Pod: pod, Rack: r})
			if err := g.AddLink(host, tor, hostToRLatency, HostGbps); err != nil {
				return err
			}
		}
		for e := 0; e < edgePerPod; e++ {
			if err := g.AddLink(tor, EdgeName(dc, pod, e), torEdgeLatency, torGbps); err != nil {
				return err
			}
		}
	}
	return nil
}

// BuildSinglePod builds the paper's single-pod evaluation topology.
func BuildSinglePod(cfg FabricConfig) (*Graph, error) {
	g := NewGraph()
	if err := AddPod(g, cfg, 0, 0); err != nil {
		return nil, err
	}
	return g, nil
}

// AddFabric adds a complete data-center fabric to g: the given number of
// pods, interconnected by spine planes (pod edge switch k connects to every
// spine switch in plane k).
func AddFabric(g *Graph, cfg FabricConfig, dc, pods int) error {
	for plane := 0; plane < edgePerPod; plane++ {
		for s := 0; s < cfg.SpinesPerPlane; s++ {
			g.AddNode(Node{ID: SpineName(dc, plane, s), Kind: KindSpine, DC: dc, Pod: -1, Rack: -1})
		}
	}
	for pod := 0; pod < pods; pod++ {
		if err := AddPod(g, cfg, dc, pod); err != nil {
			return err
		}
		for plane := 0; plane < edgePerPod; plane++ {
			edge := EdgeName(dc, pod, plane)
			for s := 0; s < cfg.SpinesPerPlane; s++ {
				if err := g.AddLink(edge, SpineName(dc, plane, s), edgeSpineLatency, spineGbps); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// InterconnectPodsConfig describes the paper's Fig. 12c setup: two (or
// more) pods joined by a small interconnect domain of redundant switches
// instead of a full spine layer.
type InterconnectPodsConfig struct {
	Fabric FabricConfig
	// Pods is the number of pods to join.
	Pods int
}

// The interconnect domain of Fig. 12c: four redundant switches (as in the
// paper), each linked to every pod edge switch at this latency.
const (
	interconnectSwitches    = 4
	edgeInterconnectLatency = 60 * time.Microsecond
)

// InterconnectName returns the canonical interconnect switch id.
func InterconnectName(dc, idx int) string {
	return fmt.Sprintf("d%d-ix%d", dc, idx)
}

// BuildInterconnectedPods builds N pods joined by a dedicated interconnect
// domain of redundant switches, the multi-domain topology of §6.3.
func BuildInterconnectedPods(cfg InterconnectPodsConfig) (*Graph, error) {
	g := NewGraph()
	const dc = 0
	for i := 0; i < interconnectSwitches; i++ {
		g.AddNode(Node{ID: InterconnectName(dc, i), Kind: KindSpine, DC: dc, Pod: -1, Rack: -1})
	}
	for pod := 0; pod < cfg.Pods; pod++ {
		if err := AddPod(g, cfg.Fabric, dc, pod); err != nil {
			return nil, err
		}
		for e := 0; e < edgePerPod; e++ {
			edge := EdgeName(dc, pod, e)
			for i := 0; i < interconnectSwitches; i++ {
				if err := g.AddLink(edge, InterconnectName(dc, i), edgeInterconnectLatency, spineGbps); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}
