package fabric

import "time"

// Retries caps how often a node retries one item of a Backoff, so that a
// simulation still quiesces.
const Retries = 5

// Backoff is one node's retransmission schedule over the items it awaits an
// answer for: an item added at time a is retried at a + base·2^k for k = 0 …
// attempts−1, each time only while it is still pending. It keeps one FIFO
// per attempt: every item enters FIFO 0 and each firing moves it on to the
// next, so every FIFO stays in due order and an Add costs O(1). One timer,
// armed only while an item is queued, serves them all.
type Backoff[E any] struct {
	fab     Fabric
	node    NodeID
	base    time.Duration
	pending func(E) bool
	retry   func(item E, attempt int)
	fifos   [][]backoffEntry[E]
	armed   Time // when the timer fires, zero while none is armed
}

type backoffEntry[E any] struct {
	item  E
	added Time
}

// NewBackoff returns an empty schedule of attempts FIFOs for node; pending
// and retry (given the attempt k) run in the node's serial context.
func NewBackoff[E any](fab Fabric, node NodeID, base time.Duration, attempts int, pending func(E) bool, retry func(item E, attempt int)) *Backoff[E] {
	return &Backoff[E]{fab: fab, node: node, base: base, pending: pending, retry: retry, fifos: make([][]backoffEntry[E], attempts)}
}

// Add queues item after dropping the answered items at FIFO 0's head, so a
// stream of items answered within base holds only those still open. The
// simulator drops a timer that falls due while its node is crashed, so a
// timer whose time has passed unrun counts as none.
func (b *Backoff[E]) Add(item E) {
	q := b.fifos[0]
	for len(q) > 0 && !b.pending(q[0].item) {
		q = q[1:]
	}
	now := b.fab.Now()
	b.fifos[0] = append(q, backoffEntry[E]{item, now})
	if b.armed == 0 || now > b.armed || now+b.base < b.armed {
		b.arm(now)
	}
}

// arm arms the timer for the earliest due item, at once if it is overdue.
func (b *Backoff[E]) arm(now Time) {
	next := Time(-1)
	for k, q := range b.fifos {
		if len(q) > 0 && (next < 0 || q[0].added+b.base<<k < next) {
			next = q[0].added + b.base<<k
		}
	}
	if next >= 0 {
		b.armed = next
		b.fab.After(b.node, max(next-now, 0), func() { b.fire(next) })
	}
}

// fire runs when the timer armed for at falls due; one re-armed since makes
// it stale. Every item due by now is retried if it is still pending and
// dropped otherwise. The FIFOs run from the last attempt down, so an item
// moved on in this firing waits for its next attempt.
func (b *Backoff[E]) fire(at Time) {
	if at != b.armed {
		return
	}
	b.armed = 0
	now := b.fab.Now()
	for k := len(b.fifos) - 1; k >= 0; k-- {
		q := b.fifos[k]
		for ; len(q) > 0 && q[0].added+b.base<<k <= now; q = q[1:] {
			if b.pending(q[0].item) {
				b.retry(q[0].item, k)
				if k+1 < len(b.fifos) {
					b.fifos[k+1] = append(b.fifos[k+1], q[0])
				}
			}
		}
		b.fifos[k] = q
	}
	b.arm(now)
}
