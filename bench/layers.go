package main

import (
	"sort"
	"strings"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/openflow"
)

// isController tells a controller node from a switch by the identity
// scheme of core.ControllerName.
func isController(id fabric.NodeID) bool { return strings.Contains(string(id), "/ctl/") }

// layerStats pools the spans of the traced rounds of one run.
type layerStats struct {
	updates uint64
	wall    time.Duration
	sends   uint64
	// bftSends counts atomic-broadcast messages.
	bftSends uint64
	sendNs   []float64
	// sendTotal is all time spent inside fabric.Send.
	sendTotal int64
	transitNs []float64
	// handleNs holds handler durations by receiving role and kind.
	ctlHandle [numKinds][]float64
	swHandle  [numKinds][]float64
	// deliverNs holds the atomic-broadcast handlers that delivered: the
	// ones during which the controller sent a signed update.
	deliverNs []float64
	// busy is handler time per node, summed over rounds.
	busy map[fabric.NodeID]int64
}

func newLayerStats() *layerStats { return &layerStats{busy: make(map[fabric.NodeID]int64)} }

// add pools one traced round.
func (ls *layerStats) add(r roundResult) error {
	transits, err := r.spans.matchLinks()
	if err != nil {
		return err
	}
	for _, tr := range transits {
		ls.transitNs = append(ls.transitNs, float64(tr.ns))
	}
	ls.updates += r.used.applied
	ls.wall += r.phase.busy
	for _, nt := range r.spans.sortedNodes() {
		ctl := isController(nt.id)
		dispatched := make(map[int64]bool)
		for _, s := range nt.sends {
			if s.kind == kindUpdate || s.kind == kindBatchUpdate {
				dispatched[s.handler] = true
			}
			ls.sends++
			if s.kind.isBFT() {
				ls.bftSends++
			}
			ls.sendNs = append(ls.sendNs, float64(s.end-s.start))
			ls.sendTotal += s.end - s.start
		}
		for _, h := range nt.handles {
			d := h.end - h.start
			ls.busy[nt.id] += d
			if ctl {
				ls.ctlHandle[h.kind] = append(ls.ctlHandle[h.kind], float64(d))
				if h.kind.isBFT() && dispatched[h.start] {
					ls.deliverNs = append(ls.deliverNs, float64(d))
				}
			} else {
				ls.swHandle[h.kind] = append(ls.swHandle[h.kind], float64(d))
			}
		}
	}
	return nil
}

// usPercentile returns a percentile of ns samples in microseconds.
func usPercentile(ns []float64, q float64) float64 {
	return percentile(ns, q) / 1e3
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// metrics renders the pooled spans as per-layer metrics.
func (ls *layerStats) metrics() map[string]float64 {
	perUpdate := func(v float64) float64 {
		if ls.updates == 0 {
			return 0
		}
		return v / float64(ls.updates)
	}
	var ctlBusy, swBusy, bftBusy float64
	var ctlMax, swMax int64
	for id, ns := range ls.busy {
		if isController(id) {
			ctlBusy += float64(ns)
			if ns > ctlMax {
				ctlMax = ns
			}
		} else {
			swBusy += float64(ns)
			if ns > swMax {
				swMax = ns
			}
		}
	}
	for k := msgKind(0); k < numKinds; k++ {
		if k.isBFT() {
			bftBusy += sum(ls.ctlHandle[k])
		}
	}
	frac := func(ns int64) float64 {
		if ls.wall <= 0 {
			return 0
		}
		return float64(ns) / float64(ls.wall)
	}
	swUpdates := append(append([]float64(nil), ls.swHandle[kindUpdate]...), ls.swHandle[kindBatchUpdate]...)
	return map[string]float64{
		"fabric.msgs_per_update":    perUpdate(float64(ls.sends)),
		"fabric.send_us_p50":        usPercentile(ls.sendNs, 0.50),
		"fabric.send_ms_per_update": perUpdate(float64(ls.sendTotal) / 1e6),
		"fabric.transit_us_p50":     usPercentile(ls.transitNs, 0.50),
		"fabric.transit_us_p95":     usPercentile(ls.transitNs, 0.95),

		"bft.busy_ms_per_update":          perUpdate(bftBusy / 1e6),
		"bft.preprepare_us_p50":           usPercentile(ls.ctlHandle[kindBFTPrePrepare], 0.50),
		"bft.prepare_us_p50":              usPercentile(ls.ctlHandle[kindBFTPrepare], 0.50),
		"bft.commit_deliver_us_p50":       usPercentile(ls.deliverNs, 0.50),
		"bft.msgs_per_update":             perUpdate(float64(ls.bftSends)),
		"controlplane.busy_frac_max":      frac(ctlMax),
		"controlplane.busy_ms_per_update": perUpdate(ctlBusy / 1e6),
		"controlplane.event_us_p50":       usPercentile(ls.ctlHandle[kindEvent], 0.50),
		"controlplane.ack_us_p50":         usPercentile(ls.ctlHandle[kindAck], 0.50),

		"dataplane.busy_frac_max":      frac(swMax),
		"dataplane.busy_ms_per_update": perUpdate(swBusy / 1e6),
		"dataplane.update_us_p50":      usPercentile(swUpdates, 0.50),
		"dataplane.update_us_p95":      usPercentile(swUpdates, 0.95),
	}
}

// stageNames are the consecutive spans an unloaded install is cut into.
// Their boundaries are all seen at the fabric seam:
//
//	emit_to_ctl     client emit -> the primary sends its first pre-prepare
//	order           -> start of the handler that sends the first signed update
//	sign_to_switch  -> start of the handler in which the first switch applies
//	first_apply     -> that switch's apply decision (combine + verify)
//	path_walk       -> the ingress rule is applied (remaining hops: ack,
//	                   release, sign, verify, apply)
var stageNames = []string{"emit_to_ctl", "order", "sign_to_switch", "first_apply", "path_walk"}

// stageHops is the path length the stage split is taken over: 3 switches
// (ToR, edge, ToR), nine in ten of all pairs. One-switch paths have no
// path walk at all; mixing the two shapes would make the stage medians
// describe neither.
const stageHops = 3

// stageSplit cuts every stageHops-long install of a drained (one
// operation at a time) traced round at the stage boundaries and returns
// the per-stage durations in ms, plus each install's total. With one
// operation in flight every span inside an operation's window belongs to
// it.
func stageSplit(t *tracedFabric, ops []opSpan) (stages [][]float64, totals []float64) {
	var prePrepares, updates []sendSpan
	var adds []applySpan
	for _, nt := range t.sortedNodes() {
		for _, s := range nt.sends {
			switch s.kind {
			case kindBFTPrePrepare:
				prePrepares = append(prePrepares, s)
			case kindUpdate, kindBatchUpdate:
				updates = append(updates, s)
			}
		}
		for _, a := range nt.applies {
			if a.op == openflow.FlowAdd {
				adds = append(adds, a)
			}
		}
	}
	sort.Slice(prePrepares, func(i, j int) bool { return prePrepares[i].start < prePrepares[j].start })
	sort.Slice(updates, func(i, j int) bool { return updates[i].start < updates[j].start })
	sort.Slice(adds, func(i, j int) bool { return adds[i].at < adds[j].at })
	// firstSend / firstAdd find the earliest span at or after `from`.
	firstSend := func(spans []sendSpan, from int64) (sendSpan, bool) {
		i := sort.Search(len(spans), func(i int) bool { return spans[i].start >= from })
		if i == len(spans) {
			return sendSpan{}, false
		}
		return spans[i], true
	}
	firstAdd := func(from int64) (applySpan, bool) {
		i := sort.Search(len(adds), func(i int) bool { return adds[i].at >= from })
		if i == len(adds) {
			return applySpan{}, false
		}
		return adds[i], true
	}
	stages = make([][]float64, len(stageNames))
	for _, op := range ops {
		if !op.install || op.hops != stageHops {
			continue
		}
		s, e := t.since(op.start), t.since(op.end)
		pp, ok1 := firstSend(prePrepares, s)
		up, ok2 := firstSend(updates, s)
		ad, ok3 := firstAdd(s)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		signStart := up.start
		if up.handler != noHandler {
			signStart = up.handler
		}
		applyStart := ad.at
		if ad.handler != noHandler {
			applyStart = ad.handler
		}
		// The ingress waiter fires just before the apply hook, so on a
		// one-switch path the last boundary can trail the end by a hair.
		last := ad.at
		if last > e {
			last = e
		}
		bounds := []int64{s, pp.start, signStart, applyStart, last, e}
		ordered := true
		for i := 1; i < len(bounds); i++ {
			if bounds[i] < bounds[i-1] {
				ordered = false
			}
		}
		if !ordered {
			continue
		}
		for i := range stageNames {
			stages[i] = append(stages[i], float64(bounds[i+1]-bounds[i])/1e6)
		}
		totals = append(totals, float64(e-s)/1e6)
	}
	return stages, totals
}

// typicalStages says where the time of a typical install goes: the mean
// of each stage over the installs in the middle fifth by total latency.
// Unlike per-stage medians, which describe five different sets of
// installs, these add up to the mean of that middle fifth, which sits
// within a hair of the install median.
func typicalStages(stages [][]float64, totals []float64) []float64 {
	order := make([]int, len(totals))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return totals[order[a]] < totals[order[b]] })
	lo, hi := len(order)*2/5, (len(order)*3+4)/5
	if hi <= lo {
		lo, hi = 0, len(order)
	}
	out := make([]float64, len(stages))
	for s := range stages {
		for _, i := range order[lo:hi] {
			out[s] += stages[s][i]
		}
		out[s] /= float64(hi - lo)
	}
	return out
}
