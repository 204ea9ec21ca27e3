package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"sync"
)

// Record is one trace entry, the same on every backend: what happened
// (Kind, Detail) at fabric time T and, for an entry about a flow-table
// update, the hex SHA-256 of the update's canonical bytes. The entry's
// sink renders protocol messages into Detail; this package names none.
type Record struct {
	T      Time   `json:"t"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
	Digest string `json:"digest,omitempty"`
}

// String renders a record's time, kind and detail for replay output.
func (r Record) String() string { return fmt.Sprintf("%12v  %-14s %s", r.T, r.Kind, r.Detail) }

// Log folds every record added to it into one SHA-256 and keeps the most
// recent ones. The hash covers exactly "T|Kind|Detail\n" of each record,
// so two runs hash equal only if they added byte-identical entries in the
// same order; entries must therefore never carry run-varying data (wall
// time, signature bytes, map order). Digest stays out of the hash. A Log is
// safe for concurrent use: live backends add from sender goroutines.
type Log struct {
	mu   sync.Mutex
	h    hash.Hash
	n    uint64
	ring []Record
	keep int
	out  func(seq uint64, r Record)
}

// NewLog returns an empty log that keeps the last keep records. out, when
// not nil, is handed every record with its sequence number (1, 2, …)
// under the log's lock, so whatever it stamps is in log order; it must
// not call back into the log.
func NewLog(keep int, out func(seq uint64, r Record)) *Log {
	return &Log{h: sha256.New(), keep: max(keep, 1), out: out}
}

// Add appends a record, folding it into the hash.
func (l *Log) Add(r Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.h, "%d|%s|%s\n", int64(r.T), r.Kind, r.Detail)
	if len(l.ring) < l.keep {
		l.ring = append(l.ring, r)
	} else {
		l.ring[l.n%uint64(l.keep)] = r
	}
	l.n++
	if l.out != nil {
		l.out(l.n, r)
	}
}

// Hash returns the hex digest over every record added so far; it can be
// sampled mid-run.
func (l *Log) Hash() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return hex.EncodeToString(l.h.Sum(nil))
}

// Records returns the kept records, oldest first.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	head := int(l.n % uint64(l.keep))
	if len(l.ring) < l.keep {
		head = 0
	}
	return append(append([]Record(nil), l.ring[head:]...), l.ring[:head]...)
}

// Related returns up to max kept records whose kind or detail contains
// token, the earliest and the most recent half each: the sub-trace
// reported with a violation.
func (l *Log) Related(token string, max int) []Record {
	var out []Record
	for _, r := range l.Records() {
		if strings.Contains(r.Detail, token) || strings.Contains(r.Kind, token) {
			out = append(out, r)
		}
	}
	if len(out) > max {
		head := out[:max/2]
		tail := out[len(out)-(max-len(head)):]
		out = append(append([]Record(nil), head...), tail...)
	}
	return out
}

// Kinds of the records a tap reports.
const (
	TapSend = "send"
	TapRecv = "recv"
)

// Tap wraps f so that observe hears of every message sent through the tap
// (kind TapSend, before the backend's fault plane sees it) and every
// message delivered to a handler registered through it (TapRecv, before
// the handler runs). On live backends observe runs on sender goroutines
// and node mailboxes at once, so it must be safe for concurrent use.
func Tap(f Fabric, observe func(kind string, from, to NodeID, msg Message)) Fabric {
	return tap{f, observe}
}

type tap struct {
	Fabric
	observe func(kind string, from, to NodeID, msg Message)
}

func (t tap) Register(id NodeID, h Handler) {
	t.Fabric.Register(id, HandlerFunc(func(from NodeID, msg Message) {
		t.observe(TapRecv, from, id, msg)
		h.HandleMessage(from, msg)
	}))
}

func (t tap) Send(from, to NodeID, msg Message, size int) {
	t.observe(TapSend, from, to, msg)
	t.Fabric.Send(from, to, msg, size)
}
