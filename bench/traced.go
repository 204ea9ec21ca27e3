package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"cicero/internal/livenet"
	"cicero/internal/topology"
)

// perLayer lists the per-layer metrics in reporting order. The same table
// is spelled out in BENCHMARK.json; README.md says which end-to-end
// metric, on which workload, each is expected to move.
var perLayer = buildPerLayer()

// codecKinds are the messages the codec micro-benchmark replays.
var codecKinds = []string{"event", "update", "batchupdate", "ack", "bft-preprepare-b1", "bft-preprepare-b32", "bft-prepare", "bft-commit"}

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{name, unit, "lower"} }
	defs := []metricDef{
		lower("tcrypto.pair_us", "us"),
		lower("tcrypto.pair_allocs", "count"),
		lower("tcrypto.hash_to_g1_us", "us"),
		lower("tcrypto.sign_share_us", "us"),
		lower("tcrypto.verify_share_us", "us"),
		lower("tcrypto.combine_verified_t2_us", "us"),
		lower("tcrypto.verify_aggregate_us", "us"),
		lower("tcrypto.verify_cached_hit_ns", "ns"),
		lower("tcrypto.ed25519_sign_us", "us"),
		lower("tcrypto.ed25519_verify_us", "us"),
		lower("tcrypto.merkle_root32_us", "us"),
		lower("tcrypto.merkle_verify32_us", "us"),
		lower("tcrypto.pairings_per_update", "count"),
		lower("tcrypto.sig_bytes_per_update", "B"),
	}
	for _, part := range []struct{ prefix, unit string }{
		{"protocol.encode_us.", "us"}, {"protocol.decode_us.", "us"}, {"protocol.bytes.", "B"}, {"protocol.allocs.", "count"},
	} {
		for _, kind := range codecKinds {
			defs = append(defs, lower(part.prefix+kind, part.unit))
		}
	}
	return append(defs,
		lower("livenet.hop_us.inproc", "us"),
		lower("livenet.hop_us.inproc_nocodec", "us"),
		lower("livenet.hop_us.tcp", "us"),
		lower("fabric.msgs_per_update", "count"),
		lower("fabric.send_us_p50", "us"),
		lower("fabric.send_ms_per_update", "ms"),
		lower("fabric.transit_us_p50", "us"),
		lower("fabric.transit_us_p95", "us"),
		lower("fabric.dropped", "count"),
		lower("livenet.retries", "count"),
		lower("livenet.reconnects", "count"),
		lower("livenet.breaker_trips", "count"),
		lower("bft.order_us_per_op.b1", "us"),
		lower("bft.order_us_per_op.b32", "us"),
		lower("bft.order_msgs_per_op.b1", "count"),
		lower("bft.order_msgs_per_op.b32", "count"),
		lower("bft.busy_ms_per_update", "ms"),
		lower("bft.preprepare_us_p50", "us"),
		lower("bft.prepare_us_p50", "us"),
		lower("bft.commit_deliver_us_p50", "us"),
		lower("bft.msgs_per_update", "count"),
		lower("bft.slots", "count"),
		metricDef{"bft.batch_fill", "count", "higher"},
		lower("bft.view_changes", "count"),
		lower("controlplane.busy_frac_max", "1"),
		lower("controlplane.busy_ms_per_update", "ms"),
		lower("controlplane.event_us_p50", "us"),
		lower("controlplane.ack_us_p50", "us"),
		lower("routing.plan_us", "us"),
		lower("scheduler.plan_us", "us"),
		lower("audit.append_us", "us"),
		lower("dataplane.busy_frac_max", "1"),
		lower("dataplane.busy_ms_per_update", "ms"),
		lower("dataplane.update_us_p50", "us"),
		lower("dataplane.update_us_p95", "us"),
		lower("dataplane.rejected", "count"),
		lower("dataplane.install_us.update", "us"),
		lower("dataplane.install_us.batchupdate32", "us"),
		lower("openflow.lookup_ns.1k", "ns"),
		lower("stage.emit_to_ctl_ms", "ms"),
		lower("stage.order_ms", "ms"),
		lower("stage.sign_to_switch_ms", "ms"),
		lower("stage.first_apply_ms", "ms"),
		lower("stage.path_walk_ms", "ms"),
		lower("stage.install_p50_ms", "ms"),
		lower("baseline.central_install_p50_ms", "ms"),
		lower("trace.overhead_frac", "1"),
	)
}

// probeCycles is how many unloaded cycles the stage split is taken from
// on a workload that is not itself sequential.
const probeCycles = 25

// runTraced is the per-layer pass of one workload. It runs the
// micro-benchmarks, alternates untraced and traced rounds on the same
// operation lists for the rest of the run's time (their throughput ratio
// is the tracing overhead), cuts unloaded installs into stages, and writes
// the last traced round's spans as JSONL.
func runTraced(o options, w workload, g *topology.Graph, pairs []hostPair, out io.Writer) error {
	began := time.Now()
	host, err := startHostReader()
	if err != nil {
		return err
	}
	defer host.stop()
	var plain, traced totals
	stats := newLayerStats()
	var slots, events, views, dropped, rejected uint64
	var distress livenet.ResilienceStats
	var last roundResult
	// stages and installs pool the stage split of every drained round.
	stages := make([][]float64, len(stageNames))
	var installs []float64
	addStages := func(r roundResult) {
		st, totals := stageSplit(r.spans, r.phase.ops)
		for i := range st {
			stages[i] = append(stages[i], st[i]...)
		}
		installs = append(installs, totals...)
	}
	values, err := runMicro(g, pairs)
	if err != nil {
		return err
	}
	// The rounds take what the micro-benchmarks left of the run's time, less
	// the stage probe's second; each takes both sides of the overhead
	// comparison.
	var longest time.Duration
	for round := 0; ; round++ {
		roundBegan := time.Now()
		ops, err := makeOps(pairs, w.Clients, o.seed, round)
		if err != nil {
			return err
		}
		// Later rounds of a process run a little faster than earlier ones,
		// so the two sides swap places every round.
		order := []bool{false, true}
		if round%2 == 1 {
			order = []bool{true, false}
		}
		for _, withTrace := range order {
			r, err := runRound(roundSpec{w: w, graph: g, ops: ops, traced: withTrace, host: host})
			if err != nil {
				return fmt.Errorf("%s round %d (traced=%v): %w", w.Name, round, withTrace, err)
			}
			slots += r.slots
			events += r.events
			views += r.views
			dropped += r.dropped
			rejected += r.rejected
			distress.Retries += r.distress.Retries
			distress.Reconnects += r.distress.Reconnects
			distress.BreakerTrips += r.distress.BreakerTrips
			if !withTrace {
				plain.add(r)
				continue
			}
			traced.add(r)
			if err := stats.add(r); err != nil {
				return err
			}
			last = r
			if w.Sequential {
				addStages(r)
			}
		}
		if d := time.Since(roundBegan); d > longest {
			longest = d
		}
		if o.enough(traced.rounds, time.Since(began)+time.Second, longest) {
			break
		}
	}

	// The stage split needs one operation in flight at a time: the
	// workload itself if it is sequential, else a one-client probe on the
	// workload's own backend and batch size.
	if !w.Sequential {
		probe := w
		probe.Clients, probe.Cycles, probe.Sequential = 1, probeCycles, true
		ops, err := makeOps(pairs, 1, o.seed, 0)
		if err != nil {
			return err
		}
		r, err := runRound(roundSpec{w: probe, graph: g, ops: ops, traced: true})
		if err != nil {
			return fmt.Errorf("%s stage probe: %w", w.Name, err)
		}
		addStages(r)
	}
	if len(installs) == 0 {
		return fmt.Errorf("%s: no install could be cut into stages", w.Name)
	}

	for name, v := range stats.metrics() {
		values[name] = v
	}
	stageSum := 0.0
	for i, v := range typicalStages(stages, installs) {
		values["stage."+stageNames[i]+"_ms"] = v
		stageSum += v
	}
	values["stage.install_p50_ms"] = percentile(installs, 0.50)

	all := plain.used.plus(traced.used)
	if all.applied > 0 {
		values["tcrypto.pairings_per_update"] = float64(all.pairings) / float64(all.applied)
		values["tcrypto.sig_bytes_per_update"] = float64(all.sigBytes) / float64(all.applied)
	}
	rounds := float64(plain.rounds + traced.rounds)
	values["bft.slots"] = float64(slots) / rounds
	if slots > 0 {
		values["bft.batch_fill"] = float64(events) / float64(slots)
	}
	values["bft.view_changes"] = float64(views)
	values["fabric.dropped"] = float64(dropped)
	values["dataplane.rejected"] = float64(rejected)
	values["livenet.retries"] = float64(distress.Retries)
	values["livenet.reconnects"] = float64(distress.Reconnects)
	values["livenet.breaker_trips"] = float64(distress.BreakerTrips)
	if ups := plain.updatesPerSec(); ups > 0 {
		values["trace.overhead_frac"] = 1 - traced.updatesPerSec()/ups
	}

	fmt.Fprintf(out, "traced pass: %d untraced + %d traced rounds, %.0f vs %.0f updates/s; stages sum to %.3f ms against install p50 %.3f ms (%d installs)\n",
		plain.rounds, traced.rounds, plain.updatesPerSec(), traced.updatesPerSec(), stageSum, values["stage.install_p50_ms"], len(installs))
	tracePath := filepath.Join(o.outDir, "trace-"+w.Name+".jsonl")
	if err := last.spans.writeJSONL(tracePath, last.phase.ops); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(out, "spans of the last traced round: %s\n", tracePath)

	res := result{
		Correct:   true,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   make(map[string]metricValue, len(perLayer)),
	}
	for _, d := range perLayer {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res.print(out, perLayer)
}
