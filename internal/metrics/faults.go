package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// CounterSet is a named bag of counters for fault-injection accounting:
// how many messages a chaos campaign dropped, delayed, duplicated or
// corrupted, how many crashes and partitions it scheduled, and so on.
// It is not safe for concurrent use; campaign workers each own one and
// merge at the end.
type CounterSet struct {
	counts map[string]uint64
}

// Canonical counter names for transport-resilience accounting. Livenet
// backends count these internally (livenet.ResilienceStats); chaos
// campaigns fold them into a CounterSet under these names so campaign
// tables stay comparable across layers.
const (
	// CounterRetry: frame (re)transmission attempts beyond the first.
	CounterRetry = "retry"
	// CounterReconnect: successful redials after a connection went bad.
	CounterReconnect = "reconnect"
	// CounterBreakerTrip: per-peer circuit-breaker closed -> open events.
	CounterBreakerTrip = "breaker-trip"
	// CounterCrash: fault-plane node crashes.
	CounterCrash = "crash"
	// CounterRestart: fault-plane node restarts.
	CounterRestart = "restart"
	// CounterRecovery: protocol-level crash recoveries completed
	// (controller state transfer adopted, switch resync served).
	CounterRecovery = "recovery"
)

// NewCounterSet returns an empty counter set.
func NewCounterSet() *CounterSet {
	return &CounterSet{counts: make(map[string]uint64)}
}

// Add increments the named counter by n.
func (c *CounterSet) Add(name string, n uint64) {
	if c.counts == nil {
		c.counts = make(map[string]uint64)
	}
	c.counts[name] += n
}

// Get returns the named counter's value.
func (c *CounterSet) Get(name string) uint64 { return c.counts[name] }

// Merge adds every counter from other into c.
func (c *CounterSet) Merge(other *CounterSet) {
	if other == nil {
		return
	}
	for name, v := range other.counts {
		c.Add(name, v)
	}
}

// Names returns the counter names in sorted order (deterministic output).
func (c *CounterSet) Names() []string {
	names := make([]string, 0, len(c.counts))
	for name := range c.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Total sums all counters.
func (c *CounterSet) Total() uint64 {
	var t uint64
	for _, v := range c.counts {
		t += v
	}
	return t
}

// Map returns a sorted-stable copy of the counters.
func (c *CounterSet) Map() map[string]uint64 {
	out := make(map[string]uint64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// Table renders the counters as a two-column metrics table.
func (c *CounterSet) Table(title string) *Table {
	t := NewTable(title, "counter", "count")
	for _, name := range c.Names() {
		t.AddRow(name, fmt.Sprintf("%d", c.counts[name]))
	}
	return t
}

// String renders "name=value" pairs in sorted order.
func (c *CounterSet) String() string {
	parts := make([]string, 0, len(c.counts))
	for _, name := range c.Names() {
		parts = append(parts, fmt.Sprintf("%s=%d", name, c.counts[name]))
	}
	return strings.Join(parts, " ")
}
