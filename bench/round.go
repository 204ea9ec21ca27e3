package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cicero/internal/core"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/metrics"
	"cicero/internal/topology"
)

// resources is a snapshot of the process- and fabric-wide counters whose
// deltas are charged to the measured updates.
type resources struct {
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	applied  uint64
	pairings uint64
	sigBytes uint64
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func snapshot(fab fabric.Fabric, obs *observer) resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := fab.Stats()
	c := metrics.Crypto.Snapshot()
	return resources{
		cpu:      processCPU(),
		mallocs:  ms.Mallocs,
		bytes:    st.Bytes,
		applied:  obs.applied.Load(),
		pairings: c["pairings"] + c["prepared_pairings"] + c["pairing_products"],
		sigBytes: c["signature_bytes"],
	}
}

func (a resources) since(b resources) resources {
	return resources{
		cpu:      a.cpu - b.cpu,
		mallocs:  a.mallocs - b.mallocs,
		bytes:    a.bytes - b.bytes,
		applied:  a.applied - b.applied,
		pairings: a.pairings - b.pairings,
		sigBytes: a.sigBytes - b.sigBytes,
	}
}

func (a resources) plus(b resources) resources {
	return resources{
		cpu:      a.cpu + b.cpu,
		mallocs:  a.mallocs + b.mallocs,
		bytes:    a.bytes + b.bytes,
		applied:  a.applied + b.applied,
		pairings: a.pairings + b.pairings,
		sigBytes: a.sigBytes + b.sigBytes,
	}
}

// roundSpec says what one round runs.
type roundSpec struct {
	w     workload
	graph *topology.Graph
	ops   opList
	// traced wraps the fabric in a tracedFabric and keeps its spans.
	traced bool
	// host reads the host's speed while the round runs (reference.go). A
	// round without it reports measured times only.
	host *hostReader
}

// roundResult is one round's measurements. Resource deltas run from the
// start of the measured phase to the drained fabric after it, so the
// trailing shares and acks of the last operations are charged too.
type roundResult struct {
	phase phaseResult
	used  resources
	// windows are the measured phase cut every windowLen, each with the
	// host's pace around it.
	windows []window
	// setup is the time from nothing to a warm, collected deployment, and
	// setupPace the host's slowness meanwhile.
	setup     time.Duration
	setupPace float64
	// peakRSSMB is the largest resident set the dispatcher read in the round.
	peakRSSMB float64
	slots     uint64
	views     uint64
	events    uint64
	dropped   uint64
	// rejected counts updates a switch refused; a gate fails on any.
	rejected uint64
	// distress is the transport's retry/reconnect/breaker counters.
	distress livenet.ResilienceStats
	spans    *tracedFabric
}

// runRound builds a fresh deployment, warms it up, measures the
// workload's cycles, drains, and checks every correctness gate. A gate
// miss is an error: the benchmark reports no numbers from a wrong run.
func runRound(spec roundSpec) (roundResult, error) {
	var res roundResult
	w := spec.w
	setupStart := time.Now()
	live, err := newLiveFabric(w.Backend)
	if err != nil {
		return res, err
	}
	defer live.Close()
	var fab fabric.Fabric = live
	if spec.traced {
		res.spans = newTracedFabric(live)
		fab = res.spans
	}
	obs := newObserver(spec.ops, res.spans)
	defer close(obs.stop) // runs before live.Close
	net, err := core.Build(deployConfig(spec.graph, fab, w, obs))
	if err != nil {
		return res, fmt.Errorf("build: %w", err)
	}
	dep := &deployment{net: net, obs: obs}
	var refChains map[string][32]byte
	if w.Sequential {
		refChains, err = referenceChains(spec.graph, w, spec.ops, warmupCycles+w.Cycles)
		if err != nil {
			return res, err
		}
	}
	nodes := dep.nodeIDs()
	emptyTables := tableDigest(dep, live.InvokeWait)
	disp := &dispatcher{
		dep:        dep,
		live:       live,
		nodes:      nodes,
		ops:        spec.ops,
		sequential: w.Sequential,
		clients:    make([]clientState, w.Clients),
	}
	warm, err := disp.run(0, warmupCycles)
	if err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	if err := quiesce(live, nodes, opTimeout); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	// Start every measured phase from a collected heap, so one round's
	// garbage is not collected on the next one's time.
	runtime.GC()
	res.setup = time.Since(setupStart)
	if spec.host != nil {
		// A short set-up sees few readings: take those just around it too,
		// from further away if the reader was kept waiting.
		end := time.Now()
		for margin := 2 * referenceEvery; res.setupPace == 0 && margin <= time.Second; margin *= 4 {
			res.setupPace = pace(spec.host.between(setupStart.Add(-margin), end.Add(margin)))
		}
		if res.setupPace == 0 {
			return res, fmt.Errorf("no reading of the host's speed during %v of set-up", res.setup)
		}
	}

	if res.spans != nil {
		res.spans.start()
	}
	before := snapshot(live, obs)
	res.phase, err = disp.run(warmupCycles, warmupCycles+w.Cycles)
	if err != nil {
		return res, errors.Join(err, slotGate(w, maxSlots(ledgers(dep, live.InvokeWait))))
	}
	if err := quiesce(live, nodes, opTimeout); err != nil {
		return res, err
	}
	res.used = snapshot(live, obs).since(before)
	if n := len(res.phase.ticks); spec.host != nil && n > 0 {
		readings := spec.host.between(res.phase.ticks[0].at, res.phase.ticks[n-1].at)
		res.windows = cutWindows(res.phase, readings, w.Sequential)
		if len(res.windows) == 0 {
			return res, fmt.Errorf("no window of the measured phase has a reading of the host's speed (%d readings, %d counter readings)", len(readings), n)
		}
	}
	for _, t := range append(warm.ticks, res.phase.ticks...) {
		res.peakRSSMB = max(res.peakRSSMB, t.rssMB)
	}
	if res.spans != nil {
		res.spans.stop()
	}

	// Correctness gates.
	var problems []error
	fail := func(format string, args ...any) { problems = append(problems, fmt.Errorf(format, args...)) }
	if n := warm.failed + res.phase.failed; n > 0 {
		fail("%d operations timed out after %v", n, opTimeout)
	}
	if want := spec.ops.expectedUpdates(0, warmupCycles); before.applied != want {
		fail("warm-up applied %d updates, want %d", before.applied, want)
	}
	if want := spec.ops.expectedUpdates(warmupCycles, warmupCycles+w.Cycles); res.used.applied != want {
		fail("measured phase applied %d updates, want %d", res.used.applied, want)
	}
	rejected := obs.rejected.Load()
	for id, sw := range net.Switches {
		sw := sw
		live.InvokeWait(fabric.NodeID(id), func() { rejected += sw.UpdatesRejected })
	}
	res.rejected = rejected
	if rejected != 0 {
		fail("switches rejected %d updates", rejected)
	}
	st := live.Stats()
	res.dropped = st.Dropped
	if st.Dropped != 0 {
		fail("fabric dropped %d messages", st.Dropped)
	}
	if got := tableDigest(dep, live.InvokeWait); got != emptyTables {
		fail("flow tables did not return to their pre-load digest")
	}
	views := ledgers(dep, live.InvokeWait)
	res.slots = maxSlots(views)
	for _, l := range views {
		if l.content != views[0].content || l.length != views[0].length {
			fail("controller %s ledger (len %d) disagrees with %s (len %d)", l.id, l.length, views[0].id, views[0].length)
		}
		if refChains != nil && l.chain != refChains[l.id] {
			fail("controller %s audit chain differs from the simulator reference", l.id)
		}
		if l.view > res.views {
			res.views = l.view
		}
		if l.delivered > res.events {
			res.events = l.delivered
		}
	}
	if err := slotGate(w, res.slots); err != nil {
		problems = append(problems, err)
	}
	res.distress = live.Resilience()
	return res, errors.Join(problems...)
}

// maxSlots is the highest delivery watermark among the controllers.
func maxSlots(views []ledgerView) uint64 {
	var slots uint64
	for _, l := range views {
		if l.slots > slots {
			slots = l.slots
		}
	}
	return slots
}

// slotGate fails a batched round that ordered more slots than the
// benchmark allows; it is also consulted when a round gets stuck, because
// running into the switches' batch-pool bound is how that happens.
func slotGate(w workload, slots uint64) error {
	if w.BatchSize > 1 && slots > maxBatchedSlots {
		return fmt.Errorf("round used %d BFT slots, over the %d this benchmark allows: switches hang near dataplane.maxPendingBatches (512) batch roots", slots, maxBatchedSlots)
	}
	return nil
}

// residentMB is the process's resident set size now (0 if unreadable).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
