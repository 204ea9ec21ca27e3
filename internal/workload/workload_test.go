package workload

import (
	"testing"
	"time"

	"cicero/internal/topology"
)

func multiDCGraph(t *testing.T) *topology.Graph {
	t.Helper()
	cfg := topology.DefaultMultiDCConfig()
	cfg.Fabric.RacksPerPod = 4
	cfg.Fabric.SpinesPerPlane = 2
	cfg.DataCenters = 3
	cfg.PodsPerDC = 2
	g, err := topology.BuildMultiDC(cfg)
	if err != nil {
		t.Fatalf("BuildMultiDC: %v", err)
	}
	return g
}

func TestGenerateDeterministic(t *testing.T) {
	g := multiDCGraph(t)
	cfg := Config{Mix: HadoopMix(), Flows: 200, MeanInterarrival: time.Millisecond, Seed: 7}
	a, err := Generate(g, cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(g, cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateLocalityFractions(t *testing.T) {
	g := multiDCGraph(t)
	mix := WebServerMix()
	flows, err := Generate(g, Config{Mix: mix, Flows: 8000, MeanInterarrival: time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	counts := make(map[Locality]int)
	for _, f := range flows {
		counts[f.Locality]++
	}
	frac := func(l Locality) float64 { return float64(counts[l]) / float64(len(flows)) }
	within := func(got, want, tol float64) bool { return got > want-tol && got < want+tol }
	if !within(frac(InterPod), mix.PInterPod, 0.03) {
		t.Errorf("inter-pod fraction %.3f, want ~%.3f", frac(InterPod), mix.PInterPod)
	}
	if interDC := 1 - mix.PIntraRack - mix.PInterRack - mix.PInterPod; !within(frac(InterDC), interDC, 0.03) {
		t.Errorf("inter-dc fraction %.3f, want ~%.3f", frac(InterDC), interDC)
	}
	if !within(frac(IntraRack), mix.PIntraRack, 0.03) {
		t.Errorf("intra-rack fraction %.3f, want ~%.3f", frac(IntraRack), mix.PIntraRack)
	}
}

func TestGenerateArrivalsMonotone(t *testing.T) {
	g := multiDCGraph(t)
	flows, err := Generate(g, Config{Mix: HadoopMix(), Flows: 500, MeanInterarrival: 100 * time.Microsecond, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var prev time.Duration
	for _, f := range flows {
		if f.Start < prev {
			t.Fatal("arrival times not monotone")
		}
		prev = f.Start
	}
	// Mean inter-arrival roughly matches the Poisson parameter.
	mean := float64(flows[len(flows)-1].Start) / float64(len(flows))
	want := float64(100 * time.Microsecond)
	if mean < 0.7*want || mean > 1.3*want {
		t.Errorf("mean interarrival %.0fns, want ~%.0fns", mean, want)
	}
}

func TestGenerateDegradesLocalityOnSmallTopology(t *testing.T) {
	// Single pod: inter-DC and inter-pod flows must degrade gracefully.
	cfg := topology.DefaultFabricConfig()
	cfg.RacksPerPod = 4
	g, err := topology.BuildSinglePod(cfg)
	if err != nil {
		t.Fatalf("BuildSinglePod: %v", err)
	}
	flows, err := Generate(g, Config{Mix: WebServerMix(), Flows: 500, MeanInterarrival: time.Millisecond, Seed: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, f := range flows {
		if f.Locality == InterDC || f.Locality == InterPod {
			t.Fatalf("flow %d has impossible locality %v on single pod", f.ID, f.Locality)
		}
		if _, ok := g.Node(f.Src); !ok {
			t.Fatalf("unknown src %s", f.Src)
		}
		if _, ok := g.Node(f.Dst); !ok {
			t.Fatalf("unknown dst %s", f.Dst)
		}
	}
}

func TestGenerateSizesPositiveAndExponential(t *testing.T) {
	g := multiDCGraph(t)
	mix := HadoopMix()
	flows, err := Generate(g, Config{Mix: mix, Flows: 4000, MeanInterarrival: time.Millisecond, Seed: 11})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var sum float64
	count := 0
	for _, f := range flows {
		if f.SizeKB <= 0 {
			t.Fatalf("flow %d has size %.2f", f.ID, f.SizeKB)
		}
		if f.Locality == IntraRack {
			sum += f.SizeKB
			count++
		}
	}
	mean := sum / float64(count)
	want := mix.SizeKB[IntraRack]
	if mean < 0.8*want || mean > 1.2*want {
		t.Errorf("intra-rack mean size %.0f kB, want ~%.0f kB", mean, want)
	}
}

func TestGenerateValidation(t *testing.T) {
	g := multiDCGraph(t)
	if _, err := Generate(g, Config{Mix: HadoopMix(), Flows: 0, MeanInterarrival: time.Millisecond}); err == nil {
		t.Error("Flows=0 accepted")
	}
	if _, err := Generate(g, Config{Mix: HadoopMix(), Flows: 10, MeanInterarrival: 0}); err == nil {
		t.Error("MeanInterarrival=0 accepted")
	}
	empty := topology.NewGraph()
	if _, err := Generate(empty, Config{Mix: HadoopMix(), Flows: 10, MeanInterarrival: time.Millisecond}); err == nil {
		t.Error("hostless topology accepted")
	}
}

func TestMixFor(t *testing.T) {
	if _, err := MixFor(Hadoop); err != nil {
		t.Error(err)
	}
	if _, err := MixFor(WebServer); err != nil {
		t.Error(err)
	}
	if _, err := MixFor(Class(99)); err == nil {
		t.Error("unknown class accepted")
	}
}
