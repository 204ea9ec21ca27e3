package topology

import (
	"fmt"
	"math"
	"time"
)

// The paper's final evaluation (Fig. 12d) places data centers at the nodes
// of Deutsche Telekom's backbone as documented by the Internet Topology
// Zoo. The Topology Zoo distributes GraphML which we cannot fetch in an
// offline build, so the documented city graph is embedded here: the major
// German backbone cities with their coordinates and the ring/mesh links
// between them. Inter-city latency is derived from great-circle distance
// at 2/3 c (propagation in fiber) times a 1.4 route-stretch factor, which
// reproduces the effect the experiment depends on — WAN latency between
// data centers dominating intra-DC latency by 2-3 orders of magnitude.

// City is a Deutsche Telekom backbone point of presence.
type City struct {
	Lat float64
	Lon float64
}

// TelekomCities lists the backbone PoPs (one data center each).
var TelekomCities = []City{
	{52.52, 13.405},  // berlin
	{53.551, 9.994},  // hamburg
	{52.376, 9.732},  // hannover
	{51.514, 7.466},  // dortmund
	{50.938, 6.96},   // koeln
	{50.110, 8.682},  // frankfurt
	{48.776, 9.183},  // stuttgart
	{48.137, 11.575}, // muenchen
	{49.453, 11.077}, // nuernberg
	{51.340, 12.375}, // leipzig
}

// telekomLinks is the backbone adjacency (index pairs into TelekomCities).
var telekomLinks = [][2]int{
	{0, 1}, // berlin-hamburg
	{0, 2}, // berlin-hannover
	{0, 9}, // berlin-leipzig
	{1, 2}, // hamburg-hannover
	{2, 3}, // hannover-dortmund
	{2, 5}, // hannover-frankfurt
	{3, 4}, // dortmund-koeln
	{4, 5}, // koeln-frankfurt
	{5, 6}, // frankfurt-stuttgart
	{5, 8}, // frankfurt-nuernberg
	{6, 7}, // stuttgart-muenchen
	{7, 8}, // muenchen-nuernberg
	{8, 9}, // nuernberg-leipzig
	{9, 7}, // leipzig-muenchen
}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// haversineKm returns the great-circle distance between two cities.
func haversineKm(a, b City) float64 {
	toRad := func(d float64) float64 { return d * math.Pi / 180 }
	dLat := toRad(b.Lat - a.Lat)
	dLon := toRad(b.Lon - a.Lon)
	lat1 := toRad(a.Lat)
	lat2 := toRad(b.Lat)
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
}

// WANLatency converts a fiber distance to one-way propagation latency:
// distance × stretch / (2/3 c).
func WANLatency(distanceKm float64) time.Duration {
	const fiberKmPerMs = 200.0 // 2/3 of c in km per millisecond
	const stretch = 1.4
	ms := distanceKm * stretch / fiberKmPerMs
	return time.Duration(ms * float64(time.Millisecond))
}

// MultiDCConfig parametrizes the multi-data-center topology of Fig. 12d.
type MultiDCConfig struct {
	Fabric FabricConfig
	// DataCenters is how many Telekom cities host a data center
	// (<= len(TelekomCities)).
	DataCenters int
	// PodsPerDC is the number of server pods per data center (paper: 4).
	PodsPerDC int
}

// coreSpineLatency is the latency between a DC's WAN core router and its
// spine switches, and wanGbps the capacity of every WAN link.
const (
	coreSpineLatency = 80 * time.Microsecond
	wanGbps          = 100
)

// DefaultMultiDCConfig mirrors the paper's Fig. 12d setup.
func DefaultMultiDCConfig() MultiDCConfig {
	return MultiDCConfig{
		Fabric:      DefaultFabricConfig(),
		DataCenters: len(TelekomCities),
		PodsPerDC:   4,
	}
}

// BuildMultiDC builds DataCenters fabrics at Telekom cities, each with a
// WAN core router connected to all of its spine switches, and inter-DC
// links following the Telekom backbone with distance-derived latencies.
func BuildMultiDC(cfg MultiDCConfig) (*Graph, error) {
	if cfg.DataCenters < 1 || cfg.DataCenters > len(TelekomCities) {
		return nil, fmt.Errorf("topology: DataCenters must be in 1..%d, got %d",
			len(TelekomCities), cfg.DataCenters)
	}
	g := NewGraph()
	for dc := 0; dc < cfg.DataCenters; dc++ {
		if err := AddFabric(g, cfg.Fabric, dc, cfg.PodsPerDC); err != nil {
			return nil, err
		}
		core := CoreName(dc)
		g.AddNode(Node{ID: core, Kind: KindCore, DC: dc, Pod: -1, Rack: -1})
		for plane := 0; plane < edgePerPod; plane++ {
			for s := 0; s < cfg.Fabric.SpinesPerPlane; s++ {
				if err := g.AddLink(core, SpineName(dc, plane, s), coreSpineLatency, wanGbps); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, link := range telekomLinks {
		a, b := link[0], link[1]
		if a >= cfg.DataCenters || b >= cfg.DataCenters {
			continue
		}
		lat := WANLatency(haversineKm(TelekomCities[a], TelekomCities[b]))
		if err := g.AddLink(CoreName(a), CoreName(b), lat, wanGbps); err != nil {
			return nil, err
		}
	}
	return g, nil
}
