// Package audit implements the paper's proposed future work (§7): a
// ledger of control-plane decisions, coupled with the atomic broadcast,
// that makes (potentially transient and malicious) controller failures
// detectable through auditability.
//
// Each controller appends every decision — event delivered, update signed
// — to an append-only hash chain. Because events are totally ordered and
// update computation is deterministic, the ledgers of correct controllers
// record the *same canonical bytes* for the same update id. An auditor
// that collects ledgers can therefore (a) verify each chain's integrity
// (a controller cannot silently rewrite its history) and (b) cross-check
// decisions across controllers, identifying equivocators by majority.
package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Kind classifies a ledger record.
type Kind int

// Record kinds. Start at 1 so the zero value is invalid.
const (
	// KindEvent records the delivery of an event in broadcast order.
	KindEvent Kind = iota + 1
	// KindUpdate records the canonical bytes of a signed update.
	KindUpdate
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindEvent:
		return "event"
	case KindUpdate:
		return "update"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Record is one audited decision.
type Record struct {
	Seq  uint64
	Kind Kind
	// Subject is the event or update id.
	Subject string
	// Canonical is the byte string the decision commits to (the event
	// encoding or the threshold-signed update bytes).
	Canonical []byte
	// PrevHash chains the record to its predecessor.
	PrevHash [32]byte
	// Hash authenticates the record: H(seq || kind || subject ||
	// canonical || prev).
	Hash [32]byte
}

// hashRecord computes a record's chained hash.
func hashRecord(r *Record) [32]byte {
	h := sha256.New()
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:8], r.Seq)
	binary.BigEndian.PutUint32(hdr[8:], uint32(r.Kind))
	h.Write(hdr[:])
	h.Write([]byte(r.Subject))
	h.Write(r.Canonical)
	h.Write(r.PrevHash[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Ledger is a controller's append-only decision chain. The zero value is
// ready to use.
type Ledger struct {
	records []Record
}

// Append adds a decision and returns the sealed record.
func (l *Ledger) Append(kind Kind, subject string, canonical []byte) Record {
	r := Record{
		Seq:       uint64(len(l.records) + 1),
		Kind:      kind,
		Subject:   subject,
		Canonical: append([]byte(nil), canonical...),
	}
	if len(l.records) > 0 {
		r.PrevHash = l.records[len(l.records)-1].Hash
	}
	r.Hash = hashRecord(&r)
	l.records = append(l.records, r)
	return r
}

// Records returns a copy of the chain.
func (l *Ledger) Records() []Record {
	return append([]Record(nil), l.records...)
}

// Errors returned by verification.
var (
	// ErrBrokenChain reports a record whose PrevHash does not match.
	ErrBrokenChain = errors.New("audit: broken hash chain")
	// ErrTamperedRecord reports a record whose hash does not match its
	// content.
	ErrTamperedRecord = errors.New("audit: tampered record")
	// ErrBadSequence reports non-contiguous sequence numbers.
	ErrBadSequence = errors.New("audit: bad sequence numbering")
)

// Verify checks the chain's integrity.
func Verify(records []Record) error {
	var prev [32]byte
	for i := range records {
		r := records[i]
		if r.Seq != uint64(i+1) {
			return fmt.Errorf("%w: record %d has seq %d", ErrBadSequence, i, r.Seq)
		}
		if r.PrevHash != prev {
			return fmt.Errorf("%w: at seq %d", ErrBrokenChain, r.Seq)
		}
		if hashRecord(&r) != r.Hash {
			return fmt.Errorf("%w: at seq %d", ErrTamperedRecord, r.Seq)
		}
		prev = r.Hash
	}
	return nil
}

// Finding reports one audited divergence.
type Finding struct {
	// Subject is the update/event id the controllers disagree on.
	Subject string
	// Suspects are the controllers whose recorded bytes differ from the
	// majority.
	Suspects []string
	// Detail explains the finding.
	Detail string
}

// Audit cross-checks the ledgers of multiple controllers. A controller
// whose chain fails verification, or whose canonical bytes for a subject
// differ from the majority of recorders, is reported. Missing records are
// not findings (a controller may lag); conflicting ones are.
func Audit(ledgers map[string][]Record) []Finding {
	var findings []Finding
	// 1. Chain integrity.
	names := make([]string, 0, len(ledgers))
	for name := range ledgers {
		names = append(names, name)
	}
	sort.Strings(names)
	valid := make(map[string]bool, len(names))
	for _, name := range names {
		if err := Verify(ledgers[name]); err != nil {
			findings = append(findings, Finding{
				Subject:  "chain:" + name,
				Suspects: []string{name},
				Detail:   err.Error(),
			})
			continue
		}
		valid[name] = true
	}
	// 2. Cross-controller consistency per subject.
	type vote struct {
		bytes []byte
		who   []string
	}
	subjects := make(map[string][]vote)
	var order []string
	for _, name := range names {
		if !valid[name] {
			continue
		}
		for _, r := range ledgers[name] {
			if r.Kind != KindUpdate {
				continue
			}
			votes := subjects[r.Subject]
			if votes == nil {
				order = append(order, r.Subject)
			}
			placed := false
			for i := range votes {
				if bytes.Equal(votes[i].bytes, r.Canonical) {
					votes[i].who = append(votes[i].who, name)
					placed = true
					break
				}
			}
			if !placed {
				votes = append(votes, vote{bytes: r.Canonical, who: []string{name}})
			}
			subjects[r.Subject] = votes
		}
	}
	for _, subject := range order {
		votes := subjects[subject]
		if len(votes) < 2 {
			continue // unanimous
		}
		// Majority variant wins; everyone else is suspect.
		sort.Slice(votes, func(i, j int) bool {
			if len(votes[i].who) != len(votes[j].who) {
				return len(votes[i].who) > len(votes[j].who)
			}
			return bytes.Compare(votes[i].bytes, votes[j].bytes) < 0
		})
		var suspects []string
		for _, v := range votes[1:] {
			suspects = append(suspects, v.who...)
		}
		sort.Strings(suspects)
		findings = append(findings, Finding{
			Subject:  subject,
			Suspects: suspects,
			Detail: fmt.Sprintf("%d controllers recorded different update bytes (majority %d)",
				len(suspects), len(votes[0].who)),
		})
	}
	return findings
}

// ChainDigest returns the chain's final hash — an order-sensitive
// commitment to the whole ledger. Two ledgers with equal ChainDigest
// recorded the same decisions in the same order (the cross-backend
// identity the live single-flow experiments assert).
func ChainDigest(records []Record) [32]byte {
	if len(records) == 0 {
		return [32]byte{}
	}
	return records[len(records)-1].Hash
}

// ContentDigest returns an order-insensitive commitment to the ledger:
// the hash of the sorted per-record lines. Concurrent workloads reach
// the atomic broadcast in backend-dependent order, so cross-backend
// comparison of multi-flow runs uses this digest — same decisions, any
// order.
func ContentDigest(records []Record) [32]byte {
	lines := make([]string, len(records))
	for i, r := range records {
		lines[i] = fmt.Sprintf("%s|%s|%x", r.Kind, r.Subject, r.Canonical)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, line := range lines {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
