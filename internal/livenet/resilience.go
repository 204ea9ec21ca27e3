package livenet

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Typed send errors. Send on the fabric interface stays fire-and-forget
// (datagram semantics), but both live backends also expose SendErr, which
// fails fast with one of these instead of blocking or silently dropping.
var (
	// ErrFabricClosed means the fabric has been Closed.
	ErrFabricClosed = errors.New("livenet: fabric closed")
	// ErrNodeCrashed means the destination is crash-faulted.
	ErrNodeCrashed = errors.New("livenet: destination node crashed")
	// ErrPartitioned means the from -> to link is partitioned.
	ErrPartitioned = errors.New("livenet: link partitioned")
	// ErrUnknownNode means the destination was never registered (or, on
	// TCP, has no listener).
	ErrUnknownNode = errors.New("livenet: unknown destination node")
	// ErrInjectedDrop means the chaos fault filter dropped the message.
	ErrInjectedDrop = errors.New("livenet: message dropped by fault filter")
	// ErrEncode means the message failed to encode (or re-decode) with the
	// wire codec.
	ErrEncode = errors.New("livenet: message failed wire codec")
	// ErrPeerUnreachable means the per-peer circuit breaker is open: the
	// peer's transport has failed repeatedly and the cooldown has not
	// elapsed, so the send fails fast instead of burning a dial timeout.
	ErrPeerUnreachable = errors.New("livenet: peer unreachable (circuit breaker open)")
	// ErrSendQueueFull means the peer's bounded outbound queue is full
	// (the writer cannot drain as fast as the node produces).
	ErrSendQueueFull = errors.New("livenet: peer send queue full")
)

// backoff is a bounded exponential backoff schedule with multiplicative
// jitter. Attempt 1 waits ~base, attempt k waits ~base·factor^(k-1),
// capped at max; each wait is then scaled by a uniform factor in
// [1-jitter, 1] so concurrent retriers decorrelate.
type backoff struct {
	base   time.Duration
	max    time.Duration
	factor float64
	jitter float64 // fraction in [0, 1)
}

// delay returns the wait before retry attempt k (k >= 1). rng supplies
// uniform [0,1) randomness; nil means no jitter.
func (b backoff) delay(attempt int, rng func() float64) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := float64(b.base)
	for i := 1; i < attempt; i++ {
		d *= b.factor
		if time.Duration(d) >= b.max {
			d = float64(b.max)
			break
		}
	}
	if time.Duration(d) > b.max {
		d = float64(b.max)
	}
	if b.jitter > 0 && rng != nil {
		d *= 1 - b.jitter*rng()
	}
	return time.Duration(d)
}

// resilience is the TCP backend's retry/timeout/backoff layer. Every
// fabric runs defaultResilience; the package's tests shorten it.
type resilience struct {
	// dialTimeout bounds one dial attempt.
	dialTimeout time.Duration
	// writeTimeout is the per-frame write deadline.
	writeTimeout time.Duration
	// maxAttempts bounds transmission attempts per frame (first try plus
	// retries); the frame is dropped when the budget is exhausted.
	maxAttempts int
	// backoff is the wait schedule between attempts.
	backoff backoff
	// queueLen bounds the per-peer outbound queue; SendErr fails fast with
	// ErrSendQueueFull when it is full.
	queueLen int
	// breakerThreshold is the number of consecutive dial failures that
	// trips the per-peer circuit breaker.
	breakerThreshold int
	// breakerCooldown is how long a tripped breaker stays open before it
	// lets one half-open probe through.
	breakerCooldown time.Duration
}

// defaultResilience is fast enough for localhost benchmarks, patient
// enough to ride out a crashed peer's restart.
var defaultResilience = resilience{
	dialTimeout:  1 * time.Second,
	writeTimeout: 2 * time.Second,
	maxAttempts:  4,
	backoff: backoff{
		base:   5 * time.Millisecond,
		max:    250 * time.Millisecond,
		factor: 2,
		jitter: 0.5,
	},
	queueLen:         4096,
	breakerThreshold: 3,
	breakerCooldown:  200 * time.Millisecond,
}

// Circuit-breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-peer circuit breaker: after threshold consecutive
// transport failures it opens (sends fail fast), and after the cooldown
// it admits a single half-open probe — success closes it, failure
// re-opens it for another cooldown.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	onTrip    func()

	state    int
	fails    int
	openedAt time.Time
}

func newBreaker(threshold int, cooldown time.Duration, onTrip func()) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, onTrip: onTrip}
}

// Allow reports whether a transport attempt may proceed now. When the
// breaker is open and the cooldown has elapsed, the first caller becomes
// the half-open probe; concurrent callers keep failing fast until the
// probe resolves.
func (k *breaker) Allow(now time.Time) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch k.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(k.openedAt) >= k.cooldown {
			k.state = breakerHalfOpen
			return true
		}
		return false
	default: // half-open: one probe already in flight
		return false
	}
}

// Rejecting reports (without state transitions) whether a send should
// fail fast right now. Unlike Allow it never claims the half-open probe,
// so enqueue-side checks don't consume it.
func (k *breaker) Rejecting(now time.Time) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.state == breakerOpen && now.Sub(k.openedAt) < k.cooldown
}

// Success records a working transport: the breaker closes.
func (k *breaker) Success() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.state = breakerClosed
	k.fails = 0
}

// Failure records a transport failure; enough of them (or a failed
// half-open probe) trip the breaker open.
func (k *breaker) Failure(now time.Time) {
	k.mu.Lock()
	k.fails++
	tripped := false
	if k.state == breakerHalfOpen || (k.state == breakerClosed && k.fails >= k.threshold) {
		k.state = breakerOpen
		k.openedAt = now
		tripped = true
	} else if k.state == breakerOpen {
		k.openedAt = now
	}
	k.mu.Unlock()
	if tripped && k.onTrip != nil {
		k.onTrip()
	}
}

// State returns the current state (for tests and diagnostics).
func (k *breaker) State() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.state
}

// lockedRand is a mutex-guarded rand.Rand: backoff jitter draws from it
// on writer goroutines concurrently.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform [0,1) sample.
func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}
