package openflow

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// FlowTable is a switch's rule store with priority matching. It is not
// concurrency-safe; in the discrete-event simulation each switch's table
// is only touched from its own handlers.
type FlowTable struct {
	rules []Rule
	// insertion preserves arrival order among equal priorities.
	insertion []uint64
	nextSeq   uint64
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable { return &FlowTable{} }

// Len returns the number of installed rules.
func (t *FlowTable) Len() int { return len(t.rules) }

// Add installs a rule. A rule with an identical (priority, match) replaces
// the previous one, mirroring OpenFlow's overlap semantics for exact
// duplicates.
func (t *FlowTable) Add(r Rule) {
	for i := range t.rules {
		if t.rules[i].Priority == r.Priority && t.rules[i].Match == r.Match {
			t.rules[i] = r
			return
		}
	}
	t.rules = append(t.rules, r)
	t.insertion = append(t.insertion, t.nextSeq)
	t.nextSeq++
	t.sortRules()
}

// sortRules keeps rules in (priority desc, insertion asc) order so Lookup
// is a linear scan returning the winning entry.
func (t *FlowTable) sortRules() {
	idx := make([]int, len(t.rules))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if t.rules[idx[a]].Priority != t.rules[idx[b]].Priority {
			return t.rules[idx[a]].Priority > t.rules[idx[b]].Priority
		}
		return t.insertion[idx[a]] < t.insertion[idx[b]]
	})
	rules := make([]Rule, len(t.rules))
	ins := make([]uint64, len(t.rules))
	for i, j := range idx {
		rules[i] = t.rules[j]
		ins[i] = t.insertion[j]
	}
	t.rules = rules
	t.insertion = ins
}

// Delete removes all rules covered by the given match (and matching cookie
// when cookie != 0), returning how many were removed. A Wildcard field in
// the match deletes regardless of that field.
func (t *FlowTable) Delete(m Match, cookie uint64) int {
	kept := t.rules[:0]
	keptIns := t.insertion[:0]
	removed := 0
	for i, r := range t.rules {
		drop := matchSubsumes(m, r.Match) && (cookie == 0 || cookie == r.Cookie)
		if drop {
			removed++
			continue
		}
		kept = append(kept, r)
		keptIns = append(keptIns, t.insertion[i])
	}
	t.rules = kept
	t.insertion = keptIns
	return removed
}

// matchSubsumes reports whether outer covers every packet inner covers.
func matchSubsumes(outer, inner Match) bool {
	srcOK := outer.Src == Wildcard || outer.Src == inner.Src
	dstOK := outer.Dst == Wildcard || outer.Dst == inner.Dst
	return srcOK && dstOK
}

// Lookup returns the highest-priority rule covering a packet from src to
// dst, or ok=false on a table miss.
func (t *FlowTable) Lookup(src, dst string) (Rule, bool) {
	for _, r := range t.rules {
		if r.Match.Covers(src, dst) {
			return r, true
		}
	}
	return Rule{}, false
}

// Apply executes a FlowMod against the table.
func (t *FlowTable) Apply(m FlowMod) {
	switch m.Op {
	case FlowAdd:
		t.Add(m.Rule)
	case FlowDelete:
		t.Delete(m.Rule.Match, m.Rule.Cookie)
	}
}

// Rules returns a copy of the installed rules in match order.
func (t *FlowTable) Rules() []Rule {
	return append([]Rule(nil), t.rules...)
}

// String renders the table for debugging.
func (t *FlowTable) String() string {
	var b strings.Builder
	b.WriteString("flowtable{")
	for i, r := range t.rules {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(r.String())
	}
	b.WriteByte('}')
	return b.String()
}

// TablesDigest canonicalizes a set of flow tables, keyed by switch id:
// one line per rule, sorted, hashed. Insertion order varies across
// backends and fault schedules; content must not, so two deployments that
// converged on the same rules digest equal however they got there.
func TablesDigest(tables map[string]*FlowTable) string {
	var lines []string
	for id, t := range tables {
		for _, r := range t.rules {
			lines = append(lines, fmt.Sprintf("%s|%d|%s|%s|%d", id, r.Priority, r.Match, r.Action, r.Cookie))
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, line := range lines {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
