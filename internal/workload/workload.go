// Package workload generates the Facebook-characterized traffic the paper
// evaluates with (Roy et al., "Inside the social network's (datacenter)
// network", SIGCOMM '15): Hadoop MapReduce and web-server flow mixes with
// Poisson arrivals, per-locality flow sizes, and the locality fractions
// the Cicero paper reports (§6.3: Hadoop 5.8% multi-domain within a pod,
// 3.3%/2.5% crossing pods/data centers; web server 31.6%, 15.7%/15.9%).
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cicero/internal/topology"
)

// Class selects a traffic mix.
type Class int

// Traffic classes. Start at 1 so the zero value is invalid.
const (
	Hadoop Class = iota + 1
	WebServer
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Hadoop:
		return "hadoop"
	case WebServer:
		return "webserver"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Locality classifies a flow's span.
type Locality int

// Localities. Start at 1 so the zero value is invalid.
const (
	IntraRack Locality = iota + 1
	InterRack          // same pod, different rack
	InterPod           // same data center, different pod
	InterDC
)

// String names the locality.
func (l Locality) String() string {
	switch l {
	case IntraRack:
		return "intra-rack"
	case InterRack:
		return "inter-rack"
	case InterPod:
		return "inter-pod"
	case InterDC:
		return "inter-dc"
	default:
		return fmt.Sprintf("locality(%d)", int(l))
	}
}

// Flow is one network flow to complete.
type Flow struct {
	ID       uint64
	Src      string
	Dst      string
	SizeKB   float64
	Start    time.Duration
	Locality Locality
}

// Mix describes a traffic class: locality probabilities and mean flow
// sizes per locality in kilobytes.
type Mix struct {
	// Fractions of flows per locality; inter-DC flows take the rest.
	PIntraRack, PInterRack, PInterPod float64
	// Mean flow size per locality (kB), exponentially distributed.
	SizeKB map[Locality]float64
}

// HadoopMix returns the Hadoop traffic mix: overwhelmingly rack- and
// pod-local (99.8% of Hadoop traffic stays in-cluster per Roy et al.),
// with the cross-pod/cross-DC fractions the paper reports.
func HadoopMix() Mix {
	return Mix{
		PIntraRack: 0.884,
		PInterRack: 0.058,
		PInterPod:  0.033, // inter-DC: 0.025
		SizeKB: map[Locality]float64{
			IntraRack: 2048,
			InterRack: 1024,
			InterPod:  512,
			InterDC:   256,
		},
	}
}

// WebServerMix returns the web-server mix: much less rack-local, with the
// paper's 15.7% inter-pod / 15.9% inter-DC fractions.
func WebServerMix() Mix {
	return Mix{
		PIntraRack: 0.368,
		PInterRack: 0.316,
		PInterPod:  0.157, // inter-DC: 0.159
		SizeKB: map[Locality]float64{
			IntraRack: 256,
			InterRack: 192,
			InterPod:  128,
			InterDC:   64,
		},
	}
}

// MixFor returns the mix for a class.
func MixFor(c Class) (Mix, error) {
	switch c {
	case Hadoop:
		return HadoopMix(), nil
	case WebServer:
		return WebServerMix(), nil
	default:
		return Mix{}, fmt.Errorf("workload: unknown class %d", c)
	}
}

// hostIndex organizes a topology's hosts hierarchically for locality-aware
// sampling.
type hostIndex struct {
	// byRack[dc][pod][rack] lists host ids.
	byRack map[int]map[int]map[int][]string
	dcs    []int
}

// buildHostIndex groups the graph's hosts.
func buildHostIndex(g *topology.Graph) (*hostIndex, error) {
	idx := &hostIndex{byRack: make(map[int]map[int]map[int][]string)}
	for _, n := range g.Nodes() {
		if n.Kind != topology.KindHost {
			continue
		}
		pods, ok := idx.byRack[n.DC]
		if !ok {
			pods = make(map[int]map[int][]string)
			idx.byRack[n.DC] = pods
			idx.dcs = append(idx.dcs, n.DC)
		}
		racks, ok := pods[n.Pod]
		if !ok {
			racks = make(map[int][]string)
			pods[n.Pod] = racks
		}
		racks[n.Rack] = append(racks[n.Rack], n.ID)
	}
	if len(idx.dcs) == 0 {
		return nil, errors.New("workload: topology has no hosts")
	}
	sort.Ints(idx.dcs)
	return idx, nil
}

// sortedKeys returns a map's int keys in order (deterministic sampling).
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Config parametrizes a generation run.
type Config struct {
	Mix   Mix
	Flows int
	// MeanInterarrival is the Poisson process's mean gap between flow
	// arrivals.
	MeanInterarrival time.Duration
	// Seed makes generation deterministic.
	Seed int64
}

// Generate produces a deterministic flow trace over the topology's hosts.
// Localities that the topology cannot express (e.g. inter-DC on a single
// pod) degrade to the widest available locality.
func Generate(g *topology.Graph, cfg Config) ([]Flow, error) {
	if cfg.Flows <= 0 {
		return nil, fmt.Errorf("workload: Flows must be positive, got %d", cfg.Flows)
	}
	if cfg.MeanInterarrival <= 0 {
		return nil, fmt.Errorf("workload: MeanInterarrival must be positive, got %v", cfg.MeanInterarrival)
	}
	idx, err := buildHostIndex(g)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	flows := make([]Flow, 0, cfg.Flows)
	var clock time.Duration
	for i := 0; i < cfg.Flows; i++ {
		clock += time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		loc := sampleLocality(rng, cfg.Mix)
		src, dst, actual := idx.samplePair(rng, loc)
		mean := cfg.Mix.SizeKB[actual]
		if mean <= 0 {
			mean = 64
		}
		size := rng.ExpFloat64() * mean
		if size < 1 {
			size = 1
		}
		flows = append(flows, Flow{
			ID:       uint64(i + 1),
			Src:      src,
			Dst:      dst,
			SizeKB:   size,
			Start:    clock,
			Locality: actual,
		})
	}
	return flows, nil
}

// sampleLocality draws a locality from the mix.
func sampleLocality(rng *rand.Rand, mix Mix) Locality {
	x := rng.Float64()
	switch {
	case x < mix.PIntraRack:
		return IntraRack
	case x < mix.PIntraRack+mix.PInterRack:
		return InterRack
	case x < mix.PIntraRack+mix.PInterRack+mix.PInterPod:
		return InterPod
	default:
		return InterDC
	}
}

// samplePair picks (src, dst) hosts realizing the locality, degrading to
// what the topology offers. It returns the locality actually realized.
func (idx *hostIndex) samplePair(rng *rand.Rand, want Locality) (string, string, Locality) {
	// Degrade wishes the topology cannot satisfy.
	if want == InterDC && len(idx.dcs) < 2 {
		want = InterPod
	}
	dc := idx.dcs[rng.Intn(len(idx.dcs))]
	pods := sortedKeys(idx.byRack[dc])
	if want == InterPod && len(pods) < 2 {
		want = InterRack
	}
	pod := pods[rng.Intn(len(pods))]
	racks := sortedKeys(idx.byRack[dc][pod])
	if want == InterRack && len(racks) < 2 {
		want = IntraRack
	}

	pick := func(dc, pod, rack int) string {
		hosts := idx.byRack[dc][pod][rack]
		return hosts[rng.Intn(len(hosts))]
	}
	switch want {
	case IntraRack:
		rack := racks[rng.Intn(len(racks))]
		hosts := idx.byRack[dc][pod][rack]
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		// With one aggregate host per rack, an intra-rack flow never
		// leaves the ToR; keep src==dst acceptable (no updates needed).
		return src, dst, IntraRack
	case InterRack:
		ri := rng.Intn(len(racks))
		rj := rng.Intn(len(racks) - 1)
		if rj >= ri {
			rj++
		}
		return pick(dc, pod, racks[ri]), pick(dc, pod, racks[rj]), InterRack
	case InterPod:
		pi := rng.Intn(len(pods))
		pj := rng.Intn(len(pods) - 1)
		if pj >= pi {
			pj++
		}
		srcRacks := sortedKeys(idx.byRack[dc][pods[pi]])
		dstRacks := sortedKeys(idx.byRack[dc][pods[pj]])
		return pick(dc, pods[pi], srcRacks[rng.Intn(len(srcRacks))]),
			pick(dc, pods[pj], dstRacks[rng.Intn(len(dstRacks))]), InterPod
	default: // InterDC
		di := rng.Intn(len(idx.dcs))
		dj := rng.Intn(len(idx.dcs) - 1)
		if dj >= di {
			dj++
		}
		srcDC, dstDC := idx.dcs[di], idx.dcs[dj]
		srcPods := sortedKeys(idx.byRack[srcDC])
		dstPods := sortedKeys(idx.byRack[dstDC])
		srcPod := srcPods[rng.Intn(len(srcPods))]
		dstPod := dstPods[rng.Intn(len(dstPods))]
		srcRacks := sortedKeys(idx.byRack[srcDC][srcPod])
		dstRacks := sortedKeys(idx.byRack[dstDC][dstPod])
		return pick(srcDC, srcPod, srcRacks[rng.Intn(len(srcRacks))]),
			pick(dstDC, dstPod, dstRacks[rng.Intn(len(dstRacks))]), InterDC
	}
}
