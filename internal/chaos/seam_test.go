package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/netprop"
	"cicero/internal/openflow"
)

// fakeCluster is a cluster with no network behind it: scheduled functions
// queue and run in time order on the test goroutine, and every fault
// actuation is recorded as a step.
type fakeCluster struct {
	now         time.Duration
	queue       []liveEvent
	steps       []string
	stepAt      map[string]time.Duration
	failRestart bool
}

func (f *fakeCluster) step(op string, nodes ...fabric.NodeID) {
	s := fmt.Sprint(op, nodes)
	f.steps = append(f.steps, fmt.Sprintf("%v %s", f.now, s))
	if f.stepAt == nil {
		f.stepAt = make(map[string]time.Duration)
	}
	f.stepAt[s] = f.now
}

func (f *fakeCluster) Now() fabric.Time                                     { return f.now }
func (f *fakeCluster) Send(from, to fabric.NodeID, _ fabric.Message, _ int) { f.step("send", from, to) }
func (f *fakeCluster) Crash(id fabric.NodeID)                               { f.step("crash", id) }
func (f *fakeCluster) Crashed(fabric.NodeID) bool                           { return false }
func (f *fakeCluster) Partition(a, b fabric.NodeID)                         { f.step("partition", a, b) }
func (f *fakeCluster) Heal(a, b fabric.NodeID)                              { f.step("heal", a, b) }
func (f *fakeCluster) PartitionOneWay(from, to fabric.NodeID)               { f.step("partition-1w", from, to) }
func (f *fakeCluster) HealOneWay(from, to fabric.NodeID)                    { f.step("heal-1w", from, to) }
func (f *fakeCluster) SetFilter(fabric.Filter)                              {}
func (f *fakeCluster) at(d time.Duration, fn func())                        { f.queue = append(f.queue, liveEvent{d, fn}) }

func (f *fakeCluster) restart(id fabric.NodeID) error {
	f.step("restart", id)
	if f.failRestart {
		return errors.New("fake: restart refused")
	}
	return nil
}

// run executes the queued schedule in time order.
func (f *fakeCluster) run() {
	sort.SliceStable(f.queue, func(i, j int) bool { return f.queue[i].at < f.queue[j].at })
	for _, ev := range f.queue {
		f.now = ev.at
		ev.fn()
	}
}

// fakeCampaign draws one seed's crash and partition schedule onto a fake
// cluster of four controllers and six switches.
func fakeCampaign(p Profile, seed int64, tm timing) (*campaign, *fakeCluster) {
	f := &fakeCluster{}
	c := newCampaign(p, seed, tm, []string{"h0", "h1", "h2"})
	c.cluster, c.recorder = f, newRecorder(f.Now)
	c.switches = []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	c.ctls = []fabric.NodeID{"c0", "c1", "c2", "c3"}
	if p.Byzantine {
		c.byz = "c3"
	}
	c.scheduleCrashes()
	c.schedulePartitions()
	return c, f
}

func TestFailedRestartIsARunError(t *testing.T) {
	c, f := fakeCampaign(CrashProfile(), 1, simTiming(120*time.Millisecond, 400*time.Millisecond))
	f.failRestart = true
	f.run()
	if c.err == "" {
		t.Fatal("a restart failed but the campaign reports no error")
	}
	healthy, g := fakeCampaign(CrashProfile(), 1, simTiming(120*time.Millisecond, 400*time.Millisecond))
	g.run()
	if healthy.err != "" {
		t.Fatalf("healthy restarts reported error %q", healthy.err)
	}
}

func TestScheduleWindowsCloseInsideTheRun(t *testing.T) {
	const fw = 300 * time.Millisecond
	tables := []struct {
		name   string
		tm     timing
		window time.Duration
	}{
		// The simulator stops at the budget; the live timeline's last
		// restart falls at 13/8 of the flow window at the latest.
		{"sim", simTiming(MixedProfile().Defaulted().FlowWindow, MixedProfile().Defaulted().SimBudget), MixedProfile().Defaulted().SimBudget},
		{"live", liveTiming(fw), 2 * fw},
	}
	opens := map[string]string{"crash": "restart", "partition": "heal", "partition-1w": "heal-1w"}
	for _, tb := range tables {
		for _, p := range []Profile{MixedProfile(), {Name: "benign", ControllerCrash: true, SwitchCrash: true, Partitions: true}} {
			for seed := int64(1); seed <= 50; seed++ {
				_, f := fakeCampaign(p, seed, tb.tm)
				f.run()
				_, again := fakeCampaign(p, seed, tb.tm)
				again.run()
				if !reflect.DeepEqual(f.steps, again.steps) {
					t.Fatalf("%s/%s seed %d: two draws differ:\n%v\n%v", tb.name, p.Name, seed, f.steps, again.steps)
				}
				opened := 0
				for s, at := range f.stepAt {
					if s == "crash[c3]" && p.Byzantine {
						t.Errorf("%s/%s seed %d: the Byzantine controller was scheduled to crash", tb.name, p.Name, seed)
					}
					for open, close := range opens {
						nodes, ok := strings.CutPrefix(s, open+"[")
						if !ok {
							continue
						}
						opened++
						closedAt, ok := f.stepAt[close+"["+nodes]
						if !ok || closedAt <= at || closedAt >= tb.window {
							t.Errorf("%s/%s seed %d: %s at %v closes at %v (found %v), want inside (%v, %v)",
								tb.name, p.Name, seed, s, at, closedAt, ok, at, tb.window)
						}
					}
				}
				// Up to 2 controller + 2 switch crashes, 9 isolation links, 1 one-way.
				if opened < 12 {
					t.Errorf("%s/%s seed %d: only %d fault windows scheduled: %v", tb.name, p.Name, seed, opened, f.steps)
				}
			}
		}
	}
}

// forwardTo builds a one-rule table sending dst to next.
func forwardTo(dst, next string) *openflow.FlowTable {
	t := openflow.NewFlowTable()
	t.Add(openflow.Rule{Priority: 10,
		Match:  openflow.Match{Src: openflow.Wildcard, Dst: dst},
		Action: openflow.Action{Type: openflow.ActionOutput, NextHop: next}})
	return t
}

func TestConvergeFiresEachInvariantOnce(t *testing.T) {
	entry := func(subject string) LedgerEntry { return LedgerEntry{Subject: subject, Digest: [32]byte{subject[0]}} }
	committed := [32]byte{1}
	clean := func() Snapshot {
		return Snapshot{
			Hosts:  map[string]bool{"h1": true},
			Tables: map[string]*openflow.FlowTable{"s1": forwardTo("h1", "s2"), "s2": forwardTo("h1", "h1")},
			Ledgers: []Ledger{
				{ID: "c1", Events: []LedgerEntry{entry("a"), entry("b")}, Updates: [][32]byte{committed}},
				{ID: "c2", Events: []LedgerEntry{entry("a")}},
			},
			Applies:      []Apply{{Switch: "s1", ID: openflow.MsgID{Origin: "e", Seq: 1}, Digest: committed, Valid: true}, {Switch: "s1", Valid: false}},
			BatchApplies: []BatchApply{{Switch: "s1", Valid: true, ProofOK: true}, {Switch: "s1", Valid: false}},
			FlowsDone:    2, FlowsTotal: 2,
		}
	}
	ref := openflow.TablesDigest(clean().Tables)
	forged := Apply{Switch: "s2", ID: openflow.MsgID{Origin: "byz/forge", Seq: 1}, Digest: [32]byte{9}, Valid: true}
	cases := []struct {
		name   string
		want   string // "" = clean
		break_ func(s *Snapshot)
		ref    string
	}{
		{"clean", "", func(*Snapshot) {}, ref},
		{"incomplete run skips the reference", "", func(s *Snapshot) { s.FlowsDone = 1 }, "not-the-digest"},
		{"lagging restarted ledger is lawful", "", func(s *Snapshot) { s.Ledgers[1].Transferred = true }, ref},
		{"walk loop", netprop.LoopFreedom, func(s *Snapshot) {
			s.Tables = map[string]*openflow.FlowTable{"s1": forwardTo("h1", "s1")}
		}, ""},
		{"blackhole", netprop.BlackholeFreedom, func(s *Snapshot) { s.Tables["s2"] = openflow.NewFlowTable() }, ""},
		{"diverging ledgers", InvBFTAgreement, func(s *Snapshot) { s.Ledgers[1].Events[0] = entry("x") }, ref},
		{"apply with no committed digest", InvNoForgedRule, func(s *Snapshot) { s.Applies = append(s.Applies, forged) }, ref},
		{"repeated defect", InvNoForgedRule, func(s *Snapshot) { s.Applies = append(s.Applies, forged, forged, forged) }, ref},
		{"valid batch apply, failing proof", InvBatchProof, func(s *Snapshot) { s.BatchApplies[0].ProofOK = false }, ref},
		{"restarted ledger diverges", InvResync, func(s *Snapshot) {
			s.Ledgers[1].Transferred = true
			s.Ledgers[1].Events[0] = entry("x")
		}, ref},
		{"reference mismatch, all flows done", InvReference, func(*Snapshot) {}, "not-the-digest"},
	}
	for _, tc := range cases {
		s := clean()
		tc.break_(&s)
		vs := Converge(s, tc.ref)
		switch {
		case tc.want == "" && len(vs) != 0:
			t.Errorf("%s: unexpected violations %v", tc.name, vs)
		case tc.want != "" && (len(vs) != 1 || vs[0].Invariant != tc.want):
			t.Errorf("%s: got %v, want exactly one %s", tc.name, vs, tc.want)
		}
	}
	if s := clean(); !s.ResyncProven() {
		t.Error("no restarted controller, yet resync is unproven")
	}
	s := clean()
	s.Ledgers[1].Transferred = true
	if s.ResyncProven() {
		t.Error("a restarted ledger shorter than every peer's counts as proven")
	}
}

func TestCheckMetaStoresFiresEachInvariantOnce(t *testing.T) {
	const now, grace = int64(time.Second), 100 * time.Millisecond
	doc := func(role string, version uint64, content byte) metaDoc {
		return metaDoc{role: role, version: version, digest: [32]byte{content}}
	}
	honest := []metaStoreView{{id: "c1", versions: metaVersions{1, 3, 3, 7},
		docs: []metaDoc{doc("root", 1, 1), doc("targets", 3, 2), doc("timestamp", 7, 3)}}}
	settled := func() metaStoreView {
		return metaStoreView{id: "s1", versions: metaVersions{1, 3, 3, 7},
			docs:  []metaDoc{doc("root", 1, 1), doc("targets", 3, 2), doc("timestamp", 6, 9)},
			fresh: true, hasProof: true, proofExpiresNS: now + 1}
	}
	cases := []struct {
		name   string
		want   string
		break_ func(v *metaStoreView)
	}{
		{"clean", "", func(*metaStoreView) {}},
		{"honestly stale", "", func(v *metaStoreView) { v.fresh, v.proofExpiresNS = false, 0 }},
		{"expired inside the grace", "", func(v *metaStoreView) { v.proofExpiresNS = now - int64(grace) }},
		{"rollback", InvMetaRollback, func(v *metaStoreView) { v.versions.snapshot = 2 }},
		{"forged", InvMetaForged, func(v *metaStoreView) { v.docs[1] = doc("targets", 3, 66) }},
		{"ahead of honest", InvMetaForged, func(v *metaStoreView) { v.versions.targets = 1000 }},
		{"stale but claims fresh", InvStalePolicy, func(v *metaStoreView) { v.proofExpiresNS = now - int64(grace) - 1 }},
		{"fresh without any proof", InvStalePolicy, func(v *metaStoreView) { v.hasProof = false }},
	}
	for _, tc := range cases {
		var f findings
		seen := make(map[string]metaVersions)
		checkMetaStores(honest, []metaStoreView{settled()}, seen, now, grace, f.report)
		if len(f.list) != 0 {
			t.Fatalf("%s: settled store already violates: %v", tc.name, f.list)
		}
		v := settled()
		tc.break_(&v)
		// Two sweeps over the same defect: it must be reported once.
		checkMetaStores(honest, []metaStoreView{v}, seen, now, grace, f.report)
		checkMetaStores(honest, []metaStoreView{v}, seen, now, grace, f.report)
		switch {
		case tc.want == "" && len(f.list) != 0:
			t.Errorf("%s: unexpected violations %v", tc.name, f.list)
		case tc.want != "" && (len(f.list) != 1 || f.list[0].Invariant != tc.want):
			t.Errorf("%s: got %v, want exactly one %s", tc.name, f.list, tc.want)
		}
	}
}
