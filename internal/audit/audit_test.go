package audit

import (
	"errors"
	"fmt"
	"testing"
)

// honestLedger records the same decision stream every correct controller
// would produce.
func honestLedger(updates int) *Ledger {
	var l Ledger
	for i := 1; i <= updates; i++ {
		l.Append(KindEvent, fmt.Sprintf("ev%d", i), []byte(fmt.Sprintf("event-%d", i)))
		l.Append(KindUpdate, fmt.Sprintf("u%d", i), []byte(fmt.Sprintf("update-bytes-%d", i)))
	}
	return &l
}

func TestVerifyAcceptsHonestChain(t *testing.T) {
	l := honestLedger(10)
	if err := Verify(l.Records()); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(l.records) != 20 {
		t.Fatalf("Len = %d, want 20", len(l.records))
	}
}

func TestVerifyDetectsContentTampering(t *testing.T) {
	l := honestLedger(5)
	records := l.Records()
	// Rewrite history: change record 3's canonical bytes.
	records[2].Canonical = []byte("forged")
	if err := Verify(records); !errors.Is(err, ErrTamperedRecord) {
		t.Fatalf("expected ErrTamperedRecord, got %v", err)
	}
}

func TestVerifyDetectsChainSplice(t *testing.T) {
	l := honestLedger(5)
	records := l.Records()
	// Remove a middle record and renumber — the hashes no longer chain.
	spliced := append(append([]Record(nil), records[:3]...), records[4:]...)
	for i := range spliced {
		spliced[i].Seq = uint64(i + 1)
		spliced[i].Hash = hashRecord(&spliced[i])
	}
	err := Verify(spliced)
	if !errors.Is(err, ErrBrokenChain) && !errors.Is(err, ErrTamperedRecord) {
		t.Fatalf("expected chain error, got %v", err)
	}
}

func TestVerifyDetectsBadSequence(t *testing.T) {
	l := honestLedger(3)
	records := l.Records()
	records[1].Seq = 9
	if err := Verify(records); !errors.Is(err, ErrBadSequence) {
		t.Fatalf("expected ErrBadSequence, got %v", err)
	}
}

func TestAuditUnanimousProducesNoFindings(t *testing.T) {
	ledgers := map[string][]Record{
		"ctl1": honestLedger(8).Records(),
		"ctl2": honestLedger(8).Records(),
		"ctl3": honestLedger(8).Records(),
		"ctl4": honestLedger(8).Records(),
	}
	if findings := Audit(ledgers); len(findings) != 0 {
		t.Fatalf("unexpected findings: %+v", findings)
	}
}

func TestAuditIdentifiesEquivocator(t *testing.T) {
	// Three honest controllers and one that signed different update bytes
	// for u2 (e.g., tried to smuggle a different rule past the quorum).
	var evil Ledger
	for i := 1; i <= 4; i++ {
		evil.Append(KindEvent, fmt.Sprintf("ev%d", i), []byte(fmt.Sprintf("event-%d", i)))
		payload := fmt.Sprintf("update-bytes-%d", i)
		if i == 2 {
			payload = "malicious-reroute"
		}
		evil.Append(KindUpdate, fmt.Sprintf("u%d", i), []byte(payload))
	}
	ledgers := map[string][]Record{
		"ctl1": honestLedger(4).Records(),
		"ctl2": honestLedger(4).Records(),
		"ctl3": honestLedger(4).Records(),
		"evil": evil.Records(),
	}
	findings := Audit(ledgers)
	if len(findings) != 1 {
		t.Fatalf("findings = %+v, want exactly 1", findings)
	}
	f := findings[0]
	if f.Subject != "u2" {
		t.Errorf("subject = %q, want u2", f.Subject)
	}
	if len(f.Suspects) != 1 || f.Suspects[0] != "evil" {
		t.Errorf("suspects = %v, want [evil]", f.Suspects)
	}
}

func TestAuditFlagsBrokenChainAsFinding(t *testing.T) {
	broken := honestLedger(3).Records()
	broken[1].Canonical = []byte("rewritten")
	ledgers := map[string][]Record{
		"ctl1": honestLedger(3).Records(),
		"ctl2": honestLedger(3).Records(),
		"ctl3": broken,
	}
	findings := Audit(ledgers)
	if len(findings) != 1 {
		t.Fatalf("findings = %+v, want 1", findings)
	}
	if findings[0].Subject != "chain:ctl3" || findings[0].Suspects[0] != "ctl3" {
		t.Fatalf("unexpected finding: %+v", findings[0])
	}
}

func TestAuditToleratesLaggingController(t *testing.T) {
	// A controller missing the tail of the stream is NOT a suspect.
	ledgers := map[string][]Record{
		"ctl1": honestLedger(6).Records(),
		"ctl2": honestLedger(6).Records(),
		"slow": honestLedger(3).Records(),
	}
	if findings := Audit(ledgers); len(findings) != 0 {
		t.Fatalf("lagging controller flagged: %+v", findings)
	}
}

func TestAuditMajorityRule(t *testing.T) {
	// Two variants with 3 vs 1 recorders: the singleton is the suspect,
	// whichever map order the auditor sees.
	divergent := func(tag string) []Record {
		var l Ledger
		l.Append(KindUpdate, "u1", []byte(tag))
		return l.Records()
	}
	ledgers := map[string][]Record{
		"a": divergent("common"),
		"b": divergent("common"),
		"c": divergent("common"),
		"d": divergent("outlier"),
	}
	findings := Audit(ledgers)
	if len(findings) != 1 || len(findings[0].Suspects) != 1 || findings[0].Suspects[0] != "d" {
		t.Fatalf("majority rule failed: %+v", findings)
	}
}

func BenchmarkLedgerAppend(b *testing.B) {
	var l Ledger
	payload := []byte("update|tor-7|prio=10 *->h42 output:edge-2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(KindUpdate, "u", payload)
	}
}

func BenchmarkAudit4x1000(b *testing.B) {
	ledgers := map[string][]Record{
		"c1": honestLedger(500).Records(),
		"c2": honestLedger(500).Records(),
		"c3": honestLedger(500).Records(),
		"c4": honestLedger(500).Records(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := Audit(ledgers); len(f) != 0 {
			b.Fatal("unexpected findings")
		}
	}
}
