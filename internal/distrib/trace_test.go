package distrib

import (
	"os"
	"path/filepath"
	"testing"

	"cicero/internal/fabric"
	"cicero/internal/livenet"
)

// TestTraceMergeCausalOrder writes two per-process traces whose clocks
// interleave and checks the merge is causally ordered and clean.
func TestTraceMergeCausalOrder(t *testing.T) {
	dir := t.TempDir()
	pa := filepath.Join(dir, "trace-a.jsonl")
	pb := filepath.Join(dir, "trace-b.jsonl")

	// Shared clock simulates the fabric threading Lamport values between
	// the two processes: a sends, b observes and applies.
	clockA := livenet.NewLamportClock()
	clockB := livenet.NewLamportClock()
	la, fa, err := openTrace(pa, "a", clockA)
	if err != nil {
		t.Fatal(err)
	}
	lb, fb, err := openTrace(pb, "b", clockB)
	if err != nil {
		t.Fatal(err)
	}
	la.Add(fabric.Record{Kind: "boot"})
	la.Add(fabric.Record{Kind: fabric.TapSend, Detail: "update to b", Digest: "digest-1"})
	clockB.Observe(clockA.Tick()) // the frame ticks a's clock and carries it
	lb.Add(fabric.Record{Kind: fabric.TapRecv, Detail: "update from a", Digest: "digest-1"})
	lb.Add(fabric.Record{Kind: recApply, Detail: "update", Digest: "digest-1"})
	fa.Close()
	fb.Close()

	merged, err := MergeTraces([]string{pa, pb})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 4 {
		t.Fatalf("merged %d records, want 4", len(merged))
	}
	// The apply must land after the send it references.
	sendAt, applyAt := -1, -1
	for i, l := range merged {
		switch l.Kind {
		case fabric.TapSend:
			sendAt = i
		case recApply:
			applyAt = i
		}
	}
	if sendAt < 0 || applyAt < 0 || applyAt < sendAt {
		t.Fatalf("apply at %d did not follow send at %d", applyAt, sendAt)
	}
	if violations := CheckCausal(merged); len(violations) != 0 {
		t.Fatalf("unexpected causal violations: %v", violations)
	}
}

// TestCheckCausalDetectsOrphanApply verifies the checker flags an apply
// whose dispatch never appears in the merged timeline.
func TestCheckCausalDetectsOrphanApply(t *testing.T) {
	lines := []Line{
		{Proc: "a", Seq: 1, Clock: 1, Record: fabric.Record{Kind: "boot"}},
		{Proc: "b", Seq: 1, Clock: 2, Record: fabric.Record{Kind: recApply, Digest: "deadbeefdeadbeef"}},
	}
	if violations := CheckCausal(lines); len(violations) != 1 {
		t.Fatalf("want 1 violation for orphan apply, got %v", violations)
	}
}

// TestCheckCausalDetectsBrokenProcessOrder verifies the checker flags a
// merge that interleaves one process's records out of order.
func TestCheckCausalDetectsBrokenProcessOrder(t *testing.T) {
	lines := []Line{
		{Proc: "a", Seq: 2, Clock: 5, Record: fabric.Record{Kind: fabric.TapSend}},
		{Proc: "a", Seq: 1, Clock: 3, Record: fabric.Record{Kind: "boot"}},
	}
	violations := CheckCausal(lines)
	if len(violations) != 2 { // seq regressed and clock regressed
		t.Fatalf("want 2 violations for broken process order, got %v", violations)
	}
}

// TestReadTraceToleratesTornTail simulates a SIGKILL mid-write: the
// final line is truncated and must be dropped, not fail the parse.
func TestReadTraceToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace-torn.jsonl")
	content := `{"proc":"a","seq":1,"clock":1,"t":0,"kind":"boot"}
{"proc":"a","seq":2,"clock":2,"t":1500,"kind":"send","digest":"abc"}
{"proc":"a","seq":3,"clo`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	lines, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("want 2 records with torn tail dropped, got %d", len(lines))
	}
	if got := lines[1]; got.Seq != 2 || got.Record != (fabric.Record{T: 1500, Kind: fabric.TapSend, Digest: "abc"}) {
		t.Fatalf("second line read as %+v", got)
	}
}

// TestLamportClock exercises the clock's tick/observe laws.
func TestLamportClock(t *testing.T) {
	c := livenet.NewLamportClock()
	if got := c.Tick(); got != 1 {
		t.Fatalf("first tick = %d, want 1", got)
	}
	if got := c.Observe(10); got != 11 {
		t.Fatalf("observe(10) = %d, want 11", got)
	}
	if got := c.Observe(3); got != 12 {
		t.Fatalf("observe(3) after 11 = %d, want 12 (local dominates)", got)
	}
	if got := c.Tick(); got != 13 {
		t.Fatalf("tick after 12 = %d, want 13", got)
	}
}
