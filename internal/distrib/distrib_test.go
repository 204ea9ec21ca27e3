package distrib

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/pairing"
)

// nodeBin is the cicero-node binary TestMain builds once for every
// multi-process test; empty means subprocess tests must skip.
var (
	nodeBin      string
	nodeBinErr   string
	nodeBinDir   string
	testHarnessM *testing.M
)

func TestMain(m *testing.M) {
	testHarnessM = m
	dir, err := os.MkdirTemp("", "cicero-node-bin")
	if err != nil {
		nodeBinErr = fmt.Sprintf("temp dir: %v", err)
		os.Exit(m.Run())
	}
	nodeBinDir = dir
	bin := filepath.Join(dir, "cicero-node")
	cmd := exec.Command("go", "build", "-o", bin, "cicero/cmd/cicero-node")
	if out, err := cmd.CombinedOutput(); err != nil {
		nodeBinErr = fmt.Sprintf("go build cicero-node: %v: %s", err, out)
	} else {
		nodeBin = bin
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// requireNodeBin skips tests that need to spawn real node processes when
// the harness could not build the binary (e.g. no subprocess spawning in
// the sandbox).
func requireNodeBin(t *testing.T) {
	t.Helper()
	if nodeBin == "" {
		t.Skipf("multi-process harness unavailable: %s", nodeBinErr)
	}
}

// smokeConfig is the deployment the shape tests plan.
func smokeConfig() core.Config {
	return core.Config{Graph: SmokeGraph(), ControllersPerDomain: 4}
}

// TestPlanShape checks the planner packs core's provisioning and nothing
// of its own: member naming, quorum, per-node bundles with distinct key
// material, every bundle's public part equal to what core.Provision
// returned, and bundle -> provisioning -> bundle the identity.
func TestPlanShape(t *testing.T) {
	dep, err := Plan(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(dep.Members); got != 4 {
		t.Fatalf("members = %d, want 4", got)
	}
	if got := dep.Members[0]; got != core.ControllerName(0, 1) {
		t.Fatalf("first member = %q, want %q", got, core.ControllerName(0, 1))
	}
	if got := len(dep.Switches); got != 4 {
		t.Fatalf("switches = %d, want 4 (hosts excluded)", got)
	}
	if dep.Quorum != controlplane.CiceroQuorum(4) {
		t.Fatalf("quorum = %d, want %d for n=4", dep.Quorum, controlplane.CiceroQuorum(4))
	}
	if got := len(dep.Bundles); got != 8 {
		t.Fatalf("bundles = %d, want 8", got)
	}
	// What provisioning fixes without drawing randomness is the same on a
	// second run for the same config; the key material is the planned run's.
	again, err := core.Provision(dep.Cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, directory := again.Domains[0], dep.Prov.Directory.Entries()
	boot := 0
	seeds := make(map[string]bool)
	for id, b := range dep.Bundles {
		if b.ID != id {
			t.Fatalf("bundle %s carries id %s", id, b.ID)
		}
		if b.Role == protocol.RoleController && b.Slot == 0 {
			boot++
		}
		if len(b.KeySeed) == 0 {
			t.Fatalf("bundle %s has no key seed", id)
		}
		if seeds[string(b.KeySeed)] {
			t.Fatalf("bundle %s reuses another node's key seed", id)
		}
		seeds[string(b.KeySeed)] = true
		if !slices.Equal(b.Members, want.Members) || !slices.Equal(b.Switches, want.Switches) || b.Quorum != want.Quorum {
			t.Fatalf("bundle %s: members %v switches %v quorum %d, core provisions %v %v %d",
				id, b.Members, b.Switches, b.Quorum, want.Members, want.Switches, want.Quorum)
		}
		if len(b.Directory) != 8 || len(directory) != 8 {
			t.Fatalf("bundle %s directory has %d entries, core's %d, want 8", id, len(b.Directory), len(directory))
		}
		for who, pub := range directory {
			if !bytes.Equal(b.Directory[who], pub) {
				t.Fatalf("bundle %s: directory entry %s is not the key core enrolled", id, who)
			}
		}
		if !b.GroupKey.PK.Point.Equal(dep.GroupKey.PK.Point) {
			t.Fatalf("bundle %s: group key is not the domain's", id)
		}
	}
	if boot != 1 {
		t.Fatalf("%d controller bundles at slot 0 (the bootstrap leader), want exactly 1", boot)
	}
}

// TestBundleRoundTrip: unpacking a bundle into a node's provisioning and
// packing that again gives the same signed bytes, for every node and with
// every field a bundle can carry in use.
func TestBundleRoundTrip(t *testing.T) {
	full := smokeConfig()
	full.Aggregation = controlplane.AggController
	full.BatchSize, full.BatchDelay = 8, time.Millisecond
	full.Metadata = true
	codec := protocol.NewWireCodec(nil)
	for name, cfg := range map[string]core.Config{"plain": smokeConfig(), "full": full} {
		dep, err := Plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for id, b := range dep.Bundles {
			want, err := codec.Encode(b)
			if err != nil {
				t.Fatal(err)
			}
			nodeCfg, prov, err := unpack(&b, dep.Cfg.Params)
			if err != nil {
				t.Fatalf("%s/%s: unpack: %v", name, id, err)
			}
			got, err := codec.Encode(pack(nodeCfg, prov, []string{id})[id])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: bundle -> provisioning -> bundle changed the bundle", name, id)
			}
			if name == "full" && (b.Aggregator != dep.Members[0] || b.MetaGenesis.Role == "" || nodeCfg.BatchSize != 8 ||
				nodeCfg.Aggregation != controlplane.AggController || !nodeCfg.Metadata) {
				t.Errorf("full/%s: aggregator %q, genesis role %q, node config %+v", id, b.Aggregator, b.MetaGenesis.Role, nodeCfg)
			}
		}
	}
}

// TestGraphWireRoundTrip checks the bundle's explicit graph encoding
// reproduces the topology.
func TestGraphWireRoundTrip(t *testing.T) {
	g := SmokeGraph()
	nodes, links := GraphToWire(g)
	if len(nodes) != 8 || len(links) != 7 {
		t.Fatalf("wire graph %d nodes / %d links, want 8/7", len(nodes), len(links))
	}
	back, err := GraphFromWire(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		got := back.Neighbors(n.ID)
		want := g.Neighbors(n.ID)
		if len(got) != len(want) {
			t.Fatalf("node %s: %d neighbors after round trip, want %d", n.ID, len(got), len(want))
		}
	}
}

// TestBundleSignatureRequired checks a bundle tampered after signing —
// its frame or the parameter set it names — or verified against the wrong
// key, is rejected before any key material in it is trusted.
func TestBundleSignatureRequired(t *testing.T) {
	dep, err := Plan(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bundle.json")
	id := string(dep.Members[0])
	if err := WriteBundle(path, dep.Cfg.Params, dep.Bundles[id], dep.deployPriv); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadBundle(path, dep.DeployPub); err != nil {
		t.Fatalf("genuine bundle rejected: %v", err)
	}
	wrongPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadBundle(path, wrongPub); err == nil {
		t.Fatal("bundle accepted under the wrong deployment key")
	}
	genuine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for what, tamper := range map[string]func(f *bundleFile){
		"frame":  func(f *bundleFile) { f.Frame[len(f.Frame)/2] ^= 0x01 },
		"params": func(f *bundleFile) { f.Params = "std512" },
	} {
		var f bundleFile
		if err := json.Unmarshal(genuine, &f); err != nil {
			t.Fatal(err)
		}
		tamper(&f)
		tampered, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, tampered, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadBundle(path, dep.DeployPub); err == nil {
			t.Fatalf("bundle with tampered %s accepted", what)
		}
	}
}

// TestStd512PlanBundlesRoundTrip: a deployment planned under Std512 is
// encoded under Std512. The supervisor writes every bundle, and each loads
// back under the set it names, byte for byte what the plan packed.
func TestStd512PlanBundlesRoundTrip(t *testing.T) {
	cfg := smokeConfig()
	cfg.Params = pairing.Std512()
	dep, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(dep, "", t.TempDir())
	if err != nil {
		t.Fatalf("supervisor: %v", err)
	}
	defer sup.Close()
	codec := protocol.NewWireCodec(pairing.Std512())
	for id, want := range dep.Bundles {
		got, params, err := LoadBundle(sup.bundlePath(id), dep.DeployPub)
		if err != nil {
			t.Fatal(err)
		}
		if params != pairing.Std512() {
			t.Fatalf("%s loaded under another parameter set", id)
		}
		wantBytes, err := codec.Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := codec.Encode(*got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("%s: the loaded bundle differs from the planned one", id)
		}
		if nodeCfg, _, err := unpack(got, params); err != nil || nodeCfg.Params != pairing.Std512() {
			t.Fatalf("%s: unpack under %v: %v", id, nodeCfg.Params, err)
		}
	}
}

// campaignDir picks the campaign working directory: a throwaway temp dir
// normally, or a subdirectory of $CICERO_DISTRIB_DIR when set — CI sets
// it so per-process logs and traces survive the run and can be uploaded
// as artifacts when a campaign fails.
func campaignDir(t *testing.T) string {
	if base := os.Getenv("CICERO_DISTRIB_DIR"); base != "" {
		dir := filepath.Join(base, t.Name())
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// goroutineCount waits for stray goroutines to wind down and returns the
// stable count.
func goroutineCount() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 40; i++ {
		time.Sleep(50 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestCampaignSmoke boots the full deployment as real OS processes — one
// per controller and switch — runs a small workload with no faults, and
// checks convergence, digest agreement and the merged causal trace.
func TestCampaignSmoke(t *testing.T) {
	requireNodeBin(t)
	if testing.Short() {
		t.Skip("multi-process campaign is slow")
	}
	before := goroutineCount()
	res, err := RunCampaign(CampaignOptions{
		Bin:     nodeBin,
		Dir:     campaignDir(t),
		Seed:    7,
		Timeout: 3 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertCampaignClean(t, res)
	assertNoLeaks(t, res, before)
}

// TestCampaignKill9Recovery is the headline chaos test: SIGKILL a
// controller and a switch mid-update (no shutdown path runs), impose and
// heal a socket-level partition, restart the victims through crash
// recovery and resync, and require full convergence with identical audit
// hash chains across the surviving and recovered processes.
func TestCampaignKill9Recovery(t *testing.T) {
	requireNodeBin(t)
	if testing.Short() {
		t.Skip("multi-process campaign is slow")
	}
	before := goroutineCount()
	res, err := RunCampaign(CampaignOptions{
		Bin:            nodeBin,
		Dir:            campaignDir(t),
		Seed:           11,
		KillController: true,
		KillSwitch:     true,
		Partition:      true,
		Timeout:        4 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Error("killed controller never finished crash recovery")
	}
	assertCampaignClean(t, res)
	assertNoLeaks(t, res, before)
}

func assertCampaignClean(t *testing.T, res *CampaignResult) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if res.FlowsDone != res.FlowsTotal {
		t.Errorf("flows: %d/%d completed", res.FlowsDone, res.FlowsTotal)
	}
	if !res.TableMatch {
		t.Errorf("tables diverge from simnet reference: %.12s vs %.12s", res.TableDigest, res.RefDigest)
	}
	if !res.DigestAgreement {
		t.Errorf("audit hash-chain digests disagree across processes: %v", res.ChainDigests)
	}
	if len(res.CausalErrors) != 0 {
		t.Errorf("merged trace causal violations: %v", res.CausalErrors)
	}
	if res.TraceEvents == 0 {
		t.Error("merged trace is empty")
	}
}

func assertNoLeaks(t *testing.T, res *CampaignResult, before int) {
	t.Helper()
	if res.ProcsLeaked != 0 {
		t.Errorf("%d node processes leaked past Close", res.ProcsLeaked)
	}
	after := goroutineCount()
	if after > before+5 {
		t.Errorf("goroutine leak: %d before campaign, %d after", before, after)
	}
}
