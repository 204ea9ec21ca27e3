package openflow

import (
	"testing"
	"testing/quick"
)

func TestMatchCovers(t *testing.T) {
	cases := []struct {
		m        Match
		src, dst string
		want     bool
	}{
		{Match{"h1", "h2"}, "h1", "h2", true},
		{Match{"h1", "h2"}, "h1", "h3", false},
		{Match{Wildcard, "h2"}, "anything", "h2", true},
		{Match{"h1", Wildcard}, "h1", "anything", true},
		{Match{Wildcard, Wildcard}, "a", "b", true},
	}
	for _, c := range cases {
		if got := c.m.Covers(c.src, c.dst); got != c.want {
			t.Errorf("%v.Covers(%s,%s) = %v, want %v", c.m, c.src, c.dst, got, c.want)
		}
	}
}

func TestFlowTablePriority(t *testing.T) {
	ft := NewFlowTable()
	ft.Add(Rule{Priority: 10, Match: Match{Wildcard, "h2"}, Action: Action{Type: ActionOutput, NextHop: "s2"}})
	ft.Add(Rule{Priority: 100, Match: Match{"h1", "h2"}, Action: Action{Type: ActionDrop}})

	// Specific high-priority (firewall) rule wins.
	r, ok := ft.Lookup("h1", "h2")
	if !ok || r.Action.Type != ActionDrop {
		t.Fatalf("lookup h1->h2 = %v (%v), want drop rule", r, ok)
	}
	// Other sources use the wildcard forward rule.
	r, ok = ft.Lookup("h9", "h2")
	if !ok || r.Action.NextHop != "s2" {
		t.Fatalf("lookup h9->h2 = %v (%v), want forward to s2", r, ok)
	}
	// Miss.
	if _, ok := ft.Lookup("h9", "h3"); ok {
		t.Fatal("unexpected match for unknown destination")
	}
}

func TestFlowTableEqualPriorityFIFO(t *testing.T) {
	ft := NewFlowTable()
	ft.Add(Rule{Priority: 5, Match: Match{Wildcard, "h2"}, Action: Action{Type: ActionOutput, NextHop: "first"}})
	ft.Add(Rule{Priority: 5, Match: Match{"h1", Wildcard}, Action: Action{Type: ActionOutput, NextHop: "second"}})
	r, ok := ft.Lookup("h1", "h2")
	if !ok || r.Action.NextHop != "first" {
		t.Fatalf("equal-priority tie should go to first-installed, got %v", r)
	}
}

func TestFlowTableReplaceOnExactDuplicate(t *testing.T) {
	ft := NewFlowTable()
	m := Match{"h1", "h2"}
	ft.Add(Rule{Priority: 5, Match: m, Action: Action{Type: ActionOutput, NextHop: "a"}})
	ft.Add(Rule{Priority: 5, Match: m, Action: Action{Type: ActionOutput, NextHop: "b"}})
	if len(ft.rules) != 1 {
		t.Fatalf("Len = %d, want 1 (replacement)", len(ft.rules))
	}
	r, _ := ft.Lookup("h1", "h2")
	if r.Action.NextHop != "b" {
		t.Fatalf("replacement did not take effect: %v", r)
	}
}

func TestFlowTableDelete(t *testing.T) {
	ft := NewFlowTable()
	ft.Add(Rule{Priority: 5, Match: Match{"h1", "h2"}, Action: Action{Type: ActionOutput, NextHop: "a"}, Cookie: 7})
	ft.Add(Rule{Priority: 5, Match: Match{"h1", "h3"}, Action: Action{Type: ActionOutput, NextHop: "a"}, Cookie: 8})
	ft.Add(Rule{Priority: 5, Match: Match{"h2", "h3"}, Action: Action{Type: ActionOutput, NextHop: "a"}, Cookie: 9})

	// Delete all flows from h1 using a wildcard dst.
	if n := ft.Delete(Match{"h1", Wildcard}, 0); n != 2 {
		t.Fatalf("deleted %d, want 2", n)
	}
	if len(ft.rules) != 1 {
		t.Fatalf("Len = %d, want 1", len(ft.rules))
	}
	// Cookie-scoped delete does not touch other cookies.
	if n := ft.Delete(Match{Wildcard, Wildcard}, 999); n != 0 {
		t.Fatalf("cookie-mismatched delete removed %d rules", n)
	}
	if n := ft.Delete(Match{Wildcard, Wildcard}, 9); n != 1 {
		t.Fatalf("cookie-scoped delete removed %d, want 1", n)
	}
}

func TestFlowTableApply(t *testing.T) {
	ft := NewFlowTable()
	add := FlowMod{Op: FlowAdd, Switch: "s1",
		Rule: Rule{Priority: 1, Match: Match{"a", "b"}, Action: Action{Type: ActionOutput, NextHop: "s2"}}}
	ft.Apply(add)
	if len(ft.rules) != 1 {
		t.Fatal("FlowAdd not applied")
	}
	del := FlowMod{Op: FlowDelete, Switch: "s1", Rule: Rule{Match: Match{"a", "b"}}}
	ft.Apply(del)
	if len(ft.rules) != 0 {
		t.Fatal("FlowDelete not applied")
	}
}

func TestCanonicalUpdateBytesDeterministic(t *testing.T) {
	id := MsgID{Origin: "ctl-1", Seq: 42}
	mods := []FlowMod{
		{Op: FlowAdd, Switch: "s1", Rule: Rule{Priority: 1, Match: Match{"a", "b"}, Action: Action{Type: ActionOutput, NextHop: "s2"}}},
		{Op: FlowDelete, Switch: "s2", Rule: Rule{Match: Match{"a", "b"}}},
	}
	x := CanonicalUpdateBytes(id, 3, mods)
	y := CanonicalUpdateBytes(id, 3, mods)
	if string(x) != string(y) {
		t.Fatal("canonical bytes differ across calls")
	}
	// Any change to phase or content must change the bytes.
	if string(x) == string(CanonicalUpdateBytes(id, 4, mods)) {
		t.Fatal("phase not bound into signed bytes")
	}
	mods2 := append([]FlowMod(nil), mods...)
	mods2[0].Rule.Action.NextHop = "s3"
	if string(x) == string(CanonicalUpdateBytes(id, 3, mods2)) {
		t.Fatal("rule content not bound into signed bytes")
	}
}

func TestMsgIDString(t *testing.T) {
	id := MsgID{Origin: "sw-3", Seq: 17}
	if id.String() != "sw-3#17" {
		t.Fatalf("MsgID.String() = %q", id.String())
	}
}

// TestLookupNeverReturnsLowerPriorityOverride property-checks that the
// winning rule always has the maximum priority among covering rules.
func TestLookupNeverReturnsLowerPriorityOverride(t *testing.T) {
	f := func(prios []uint8) bool {
		ft := NewFlowTable()
		for i, p := range prios {
			nh := "a"
			if i%2 == 0 {
				nh = "b"
			}
			ft.Add(Rule{Priority: int(p), Match: Match{Wildcard, "h2"},
				Action: Action{Type: ActionOutput, NextHop: nh}, Cookie: uint64(i)})
		}
		r, ok := ft.Lookup("x", "h2")
		if !ok {
			return len(prios) == 0
		}
		for _, other := range ft.Rules() {
			if other.Priority > r.Priority {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFlowTableLookup(b *testing.B) {
	ft := NewFlowTable()
	for i := 0; i < 1000; i++ {
		ft.Add(Rule{Priority: i % 16, Match: Match{Src: "h" + string(rune('a'+i%26)), Dst: "d" + string(rune('a'+i%26))},
			Action: Action{Type: ActionOutput, NextHop: "s"}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Lookup("hq", "dq")
	}
}
