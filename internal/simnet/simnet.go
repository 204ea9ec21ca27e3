// Package simnet is a deterministic discrete-event network simulator. It
// stands in for the paper's DeterLab testbed: protocol components run as
// message handlers on a single virtual-time event loop, links impose
// latency, and nodes account CPU time through a charge model, so
// experiments measure protocol-induced cost (messaging rounds, crypto,
// quorum waits) reproducibly from a seed.
//
// Design notes:
//   - No goroutines in the protocol path: handlers run sequentially in
//     virtual-time order, so runs are bit-for-bit reproducible and tests
//     can assert exact orderings.
//   - Events with equal timestamps are ordered by scheduling sequence
//     number, which makes FIFO per-link delivery the default.
//   - A node that is "busy" (charged CPU time) delays both its handling of
//     arriving messages and the emission of its replies, modelling the
//     switch-CPU effects the paper measures in Fig. 11d.
package simnet

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cicero/internal/fabric"
)

// Time is virtual time since simulation start.
type Time = time.Duration

// NodeID names a simulated node (switch, controller, host). It is the
// fabric-wide node id: simnet is one fabric.Fabric backend.
type NodeID = fabric.NodeID

// Message is an opaque protocol message. Handlers type-switch on it.
type Message = fabric.Message

// Handler processes messages delivered to a node.
type Handler = fabric.Handler

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc = fabric.HandlerFunc

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap is a min-heap ordered by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// ErrEventBudget reports that Run hit its safety cap, indicating a
// runaway protocol (e.g., a message loop).
var ErrEventBudget = errors.New("simnet: event budget exhausted")

// Simulator is the virtual-time event loop.
type Simulator struct {
	now     Time
	pending eventHeap
	seq     uint64
	rng     *rand.Rand

	// MaxEvents caps a single Run; zero means the default (100M).
	MaxEvents uint64
	processed uint64
}

// NewSimulator creates a simulator whose randomness (jitter, sampling) is
// derived from seed.
func NewSimulator(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand exposes the simulation's deterministic randomness source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.pending, &event{at: t, seq: s.seq, fn: fn})
}

// Schedule schedules fn after the given delay.
func (s *Simulator) Schedule(delay Time, fn func()) {
	s.At(s.now+delay, fn)
}

// MaxTime is the latest representable virtual instant. Passing it to
// RunUntil means "run to completion": no schedulable event can exceed it.
const MaxTime Time = 1<<62 - 1

// Run executes events until the queue is empty, returning the virtual time
// reached. It fails with ErrEventBudget if the cap is exceeded.
func (s *Simulator) Run() (Time, error) {
	return s.RunUntil(MaxTime)
}

// RunUntil executes events with timestamps <= deadline.
func (s *Simulator) RunUntil(deadline Time) (Time, error) {
	budget := s.MaxEvents
	if budget == 0 {
		budget = 100_000_000
	}
	for s.pending.Len() > 0 {
		next := s.pending[0]
		if next.at > deadline {
			s.now = deadline
			return s.now, nil
		}
		heap.Pop(&s.pending)
		s.now = next.at
		s.processed++
		if s.processed > budget {
			return s.now, fmt.Errorf("%w (processed %d)", ErrEventBudget, s.processed)
		}
		next.fn()
	}
	return s.now, nil
}

// Pending returns the number of queued events (for tests).
func (s *Simulator) Pending() int { return s.pending.Len() }
