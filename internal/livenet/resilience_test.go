package livenet

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/protocol"
)

// TestBackoffSchedule pins the deterministic (jitter-free) schedule: Base,
// Base·Factor, Base·Factor², ..., capped at Max.
func TestBackoffSchedule(t *testing.T) {
	b := backoff{base: 5 * time.Millisecond, max: 40 * time.Millisecond, factor: 2}
	want := []time.Duration{
		5 * time.Millisecond,  // attempt 1
		10 * time.Millisecond, // attempt 2
		20 * time.Millisecond, // attempt 3
		40 * time.Millisecond, // attempt 4 hits the cap
		40 * time.Millisecond, // and stays there
	}
	for i, w := range want {
		if got := b.delay(i+1, nil); got != w {
			t.Errorf("attempt %d: delay %v, want %v", i+1, got, w)
		}
	}
	// Out-of-range attempts clamp to the first step.
	if got := b.delay(0, nil); got != want[0] {
		t.Errorf("attempt 0: delay %v, want %v", got, want[0])
	}
}

// TestBackoffJitterBounds checks jittered delays stay in
// [(1-Jitter)·step, step] and that the rng actually moves them.
func TestBackoffJitterBounds(t *testing.T) {
	b := backoff{base: 8 * time.Millisecond, max: time.Second, factor: 2, jitter: 0.5}
	rng := newLockedRand(42)
	varied := false
	for attempt := 1; attempt <= 4; attempt++ {
		step := b.delay(attempt, nil)
		lo := time.Duration(float64(step) * (1 - b.jitter))
		for i := 0; i < 50; i++ {
			d := b.delay(attempt, rng.Float64)
			if d < lo || d > step {
				t.Fatalf("attempt %d: jittered delay %v outside [%v, %v]", attempt, d, lo, step)
			}
			if d != step {
				varied = true
			}
		}
	}
	if !varied {
		t.Fatal("jitter never moved the delay")
	}
}

// TestBreakerStateMachine walks the circuit breaker through its full
// cycle: closed -> (threshold failures) -> open -> (cooldown) -> half-open
// probe -> failure -> open again -> (cooldown) -> probe -> success ->
// closed.
func TestBreakerStateMachine(t *testing.T) {
	var trips atomic.Uint64
	cooldown := 50 * time.Millisecond
	k := newBreaker(3, cooldown, func() { trips.Add(1) })
	now := time.Unix(1000, 0)

	// Closed: failures below the threshold keep admitting.
	k.Failure(now)
	k.Failure(now)
	if !k.Allow(now) || k.State() != breakerClosed {
		t.Fatal("breaker opened before the threshold")
	}
	// Third consecutive failure trips it.
	k.Failure(now)
	if k.State() != breakerOpen || trips.Load() != 1 {
		t.Fatalf("state=%d trips=%d after threshold failures", k.State(), trips.Load())
	}
	if k.Allow(now) || !k.Rejecting(now) {
		t.Fatal("open breaker admitted a send inside the cooldown")
	}

	// Cooldown elapsed: exactly one half-open probe gets through.
	later := now.Add(cooldown)
	if k.Rejecting(later) {
		t.Fatal("Rejecting still true after cooldown")
	}
	if !k.Allow(later) {
		t.Fatal("no half-open probe after cooldown")
	}
	if k.State() != breakerHalfOpen {
		t.Fatalf("state=%d, want half-open", k.State())
	}
	if k.Allow(later) {
		t.Fatal("second concurrent probe admitted while half-open")
	}

	// Failed probe re-opens for another cooldown.
	k.Failure(later)
	if k.State() != breakerOpen || trips.Load() != 2 {
		t.Fatalf("state=%d trips=%d after failed probe", k.State(), trips.Load())
	}

	// Successful probe after the next cooldown closes it for good.
	again := later.Add(cooldown)
	if !k.Allow(again) {
		t.Fatal("no probe after second cooldown")
	}
	k.Success()
	if k.State() != breakerClosed || !k.Allow(again) {
		t.Fatal("breaker did not close after a successful probe")
	}
	// Closing reset the failure count: one new failure must not re-trip.
	k.Failure(again)
	if k.State() != breakerClosed {
		t.Fatal("single failure after recovery re-tripped the breaker")
	}
}

// newTCPWith builds a TCP fabric whose links, all created after this
// returns, run under res in place of defaultResilience.
func newTCPWith(res resilience) (*TCP, error) {
	f, err := NewTCP(protocol.NewWireCodec(nil))
	if err == nil {
		f.res = res
	}
	return f, err
}

// TestTCPBreakerTripsOnDeadPeer makes every dial to a peer fail (its
// listener is dead but its address is still advertised — a crashed remote
// process, from the sender's point of view) and checks the per-peer
// circuit breaker trips and sends start failing fast with
// ErrPeerUnreachable. (An explicitly Crash()ed peer never reaches the
// dial path: admit() fails fast with ErrNodeCrashed — that rule is covered
// by TestInProcFaults.)
func TestTCPBreakerTripsOnDeadPeer(t *testing.T) {
	res := defaultResilience
	res.dialTimeout = 50 * time.Millisecond
	res.maxAttempts = 1
	res.backoff = backoff{base: time.Millisecond, max: 2 * time.Millisecond, factor: 2}
	res.breakerThreshold = 2
	res.breakerCooldown = 10 * time.Second // long: stays open for the test
	f, err := newTCPWith(res)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Register("s1", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {}))
	// Kill the listener out from under the advertised address: the node is
	// not crash-marked, so sends are admitted and hit real dial failures.
	f.lmu.Lock()
	ln := f.listeners["s1"]
	f.lmu.Unlock()
	ln.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		err := f.SendErr("c1", "s1", protocol.MsgHeartbeat{Seq: 1}, 0)
		if err == ErrPeerUnreachable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never tripped; last err: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := f.Resilience(); st.BreakerTrips == 0 {
		t.Fatalf("resilience stats show no breaker trips: %+v", st)
	}
}

// TestResilienceCountersExactOnDeadPeer pins the exact counter values the
// campaign results and bench/'s livenet.* metrics are built from (both copy
// fab.Resilience() verbatim). With MaxAttempts=1 nothing ever retries, a
// threshold of 2 against a dead listener trips the breaker exactly once,
// and a cooldown far longer than the test keeps it from re-tripping via a
// half-open probe — so every counter has one correct value, not a range.
func TestResilienceCountersExactOnDeadPeer(t *testing.T) {
	res := defaultResilience
	res.dialTimeout = 50 * time.Millisecond
	res.maxAttempts = 1 // no retries: Retries must stay exactly 0
	res.backoff = backoff{base: time.Millisecond, max: 2 * time.Millisecond, factor: 2}
	res.breakerThreshold = 2
	res.breakerCooldown = 10 * time.Second // never half-opens during the test
	f, err := newTCPWith(res)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Register("s1", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {}))
	f.lmu.Lock()
	ln := f.listeners["s1"]
	f.lmu.Unlock()
	ln.Close()

	deadline := time.Now().Add(15 * time.Second)
	for f.SendErr("c1", "s1", protocol.MsgHeartbeat{Seq: 1}, 0) != ErrPeerUnreachable {
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := f.Resilience()
	want := ResilienceStats{BreakerTrips: 1}
	if st != want {
		t.Fatalf("resilience counters = %+v, want %+v", st, want)
	}
}

// TestResilienceCountersExactOnReconnect pins reconnect accounting: the
// first dial of a link is a connect, not a reconnect (setConn only counts
// when a connection existed before), and severing the live connection
// costs exactly one failed write (one retry) and one redial (one
// reconnect) for the next frame.
func TestResilienceCountersExactOnReconnect(t *testing.T) {
	res := defaultResilience
	res.dialTimeout = time.Second
	res.maxAttempts = 3
	res.backoff = backoff{base: time.Millisecond, max: 2 * time.Millisecond, factor: 2}
	f, err := newTCPWith(res)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var delivered atomic.Uint64
	f.Register("s1", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {
		delivered.Add(1)
	}))

	f.Send("c1", "s1", protocol.MsgHeartbeat{Seq: 1}, 0)
	waitFor(t, 5*time.Second, func() bool { return delivered.Load() == 1 },
		"first delivery")
	if st := f.Resilience(); st != (ResilienceStats{}) {
		t.Fatalf("counters moved on a clean first connect: %+v", st)
	}

	// Sever the established connection out from under the link. The next
	// frame's first write fails immediately (closed conn), which is one
	// retry; the redial that follows replaces an existing connection,
	// which is one reconnect.
	l, err := f.link("c1", "s1")
	if err != nil {
		t.Fatal(err)
	}
	l.currentConn().Close()
	f.Send("c1", "s1", protocol.MsgHeartbeat{Seq: 2}, 0)
	waitFor(t, 5*time.Second, func() bool { return delivered.Load() == 2 },
		"delivery after severed connection")
	st := f.Resilience()
	want := ResilienceStats{Retries: 1, Reconnects: 1}
	if st != want {
		t.Fatalf("resilience counters = %+v, want %+v", st, want)
	}
}

// TestTCPKillPeerMidWorkload crashes the receiver in the middle of a
// steady send workload, restarts it, and requires delivery to resume: the
// retry/reconnect layer must ride out the dead listener and redial the
// reborn one.
func TestTCPKillPeerMidWorkload(t *testing.T) {
	res := defaultResilience
	res.dialTimeout = 200 * time.Millisecond
	res.maxAttempts = 3
	res.backoff = backoff{base: 5 * time.Millisecond, max: 50 * time.Millisecond, factor: 2, jitter: 0.5}
	res.breakerThreshold = 5
	res.breakerCooldown = 50 * time.Millisecond
	f, err := newTCPWith(res)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var delivered atomic.Uint64
	f.Register("s1", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {
		delivered.Add(1)
	}))

	stop := make(chan struct{})
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		var seq uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			f.Send("c1", "s1", protocol.MsgHeartbeat{Seq: seq}, 0)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	waitFor(t, 5*time.Second, func() bool { return delivered.Load() > 10 },
		"initial deliveries")

	// Kill the peer mid-workload: listener gone, live connections severed.
	f.Crash("s1")
	atCrash := delivered.Load()
	atCrashDropped := f.Stats().DroppedCrash
	// The workload keeps hammering the dead peer; wait for the fault
	// plane to observably drop traffic instead of sleeping a fixed beat.
	waitFor(t, 5*time.Second, func() bool {
		return f.Stats().DroppedCrash > atCrashDropped+5
	}, "sends to drop against the crashed peer")

	// Restart: the node re-listens (new port); senders must redial.
	f.Restart("s1")
	waitFor(t, 15*time.Second, func() bool { return delivered.Load() > atCrash+10 },
		"delivery to resume after restart")

	close(stop)
	<-senderDone
	st := f.Resilience()
	if st.Crashes != 1 || st.Restarts != 1 {
		t.Fatalf("resilience stats: %+v", st)
	}
	t.Logf("delivered=%d (at crash %d) resilience=%+v", delivered.Load(), atCrash, st)
}

// TestInProcClosesCleanly is the goroutine-leak assertion: building a
// backend, pushing traffic and timers through it, and closing it must
// return the process to its original goroutine count — mailbox pumps,
// timer goroutines, and TCP read/accept/writer loops all terminate.
func TestInProcClosesCleanly(t *testing.T) {
	assertNoGoroutineLeak(t, func() {
		p := NewInProc(protocol.NewWireCodec(nil))
		p.Register("a", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {}))
		p.Register("b", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {}))
		for i := 0; i < 50; i++ {
			p.Send("a", "b", protocol.MsgHeartbeat{Seq: uint64(i)}, 0)
		}
		p.After("a", time.Millisecond, func() {})
		p.After("b", time.Hour, func() {}) // must not pin a goroutine past Close
		p.Close()
	})
}

// TestTCPClosesCleanly is the same leak assertion for the TCP backend,
// including a crashed-then-restarted node and a workload that exercises
// dial, accept, read, and writer goroutines.
func TestTCPClosesCleanly(t *testing.T) {
	assertNoGoroutineLeak(t, func() {
		f, err := NewTCP(protocol.NewWireCodec(nil))
		if err != nil {
			t.Fatal(err)
		}
		var got atomic.Uint64
		f.Register("s1", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) { got.Add(1) }))
		f.Register("s2", fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) { got.Add(1) }))
		for i := 0; i < 20; i++ {
			f.Send("c1", "s1", protocol.MsgHeartbeat{Seq: uint64(i)}, 0)
			f.Send("s1", "s2", protocol.MsgHeartbeat{Seq: uint64(i)}, 0)
		}
		waitFor(t, 5*time.Second, func() bool { return got.Load() == 40 }, "tcp deliveries")
		f.Crash("s2")
		f.Restart("s2")
		f.Close()
	})
}

// assertNoGoroutineLeak runs fn and requires the goroutine count to
// return to (near) its starting point afterwards, polling briefly to let
// shutdown complete.
func assertNoGoroutineLeak(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(10 * time.Second)
	var after int
	for time.Now().Before(deadline) {
		runtime.GC() // nudge finalizers and parked goroutines
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
}
