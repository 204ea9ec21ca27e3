package main

import (
	"encoding/json"
	"os"
	"time"
)

// window is one windowLen of a measured phase: what the load did in it
// and how fast the host was meanwhile.
type window struct {
	// busy is the time load was applied in the window: its length, or, when
	// the fabric is drained between operations, the latencies of the
	// operations that ended in it.
	busy    time.Duration
	applied uint64
	cpu     time.Duration
	// installMs and teardownMs are the operations that ended in the window.
	installMs  []float64
	teardownMs []float64
	// host are the readings of the reference kernel taken in the window.
	host []reading
	// pace is the host's slowness against nominal (reference.go) around the
	// window: the median of its readings and its neighbours'.
	pace float64
}

// cutWindows cuts a phase at the dispatcher's counter readings and gives
// every window its pace from the host's readings, which are in time order.
// A cut shorter than half a window (the tail of the phase) is left out,
// and so is one in which no operation ended or around which the host's
// speed was not read.
func cutWindows(p phaseResult, host []reading, sequential bool) []window {
	var cuts []window
	nextOp, nextHost := 0, 0 // p.ops is in completion order
	for len(p.ticks) > 0 && nextHost < len(host) && host[nextHost].at.Before(p.ticks[0].at) {
		nextHost++
	}
	for i := 1; i < len(p.ticks); i++ {
		from, to := p.ticks[i-1], p.ticks[i]
		w := window{busy: to.at.Sub(from.at), cpu: to.cpu - from.cpu}
		var latencies time.Duration
		for ; nextOp < len(p.ops) && !p.ops[nextOp].end.After(to.at); nextOp++ {
			op := p.ops[nextOp]
			// An operation applies one update on each switch of its path (a
			// gate of the round checks the total).
			w.applied += uint64(op.hops)
			d := op.end.Sub(op.start)
			latencies += d
			ms := float64(d) / float64(time.Millisecond)
			if op.install {
				w.installMs = append(w.installMs, ms)
			} else {
				w.teardownMs = append(w.teardownMs, ms)
			}
		}
		for ; nextHost < len(host) && !host[nextHost].at.After(to.at); nextHost++ {
			w.host = append(w.host, host[nextHost])
		}
		if sequential {
			w.busy = latencies
		}
		cuts = append(cuts, w)
	}
	var out []window
	for i, w := range cuts {
		var around []reading
		for j := max(0, i-1); j <= min(len(cuts)-1, i+1); j++ {
			around = append(around, cuts[j].host...)
		}
		w.pace = pace(around)
		whole := p.ticks[i+1].at.Sub(p.ticks[i].at) >= windowLen/2
		if whole && w.applied > 0 && w.pace > 0 {
			out = append(out, w)
		}
	}
	return out
}

// pooled is a set of windows added up, every time in it scaled to the
// nominal host.
type pooled struct {
	busy       time.Duration
	cpu        time.Duration
	applied    uint64
	installMs  []float64
	teardownMs []float64
}

// pool scales each window by its pace and adds them up.
func pool(windows []window) pooled {
	var p pooled
	for _, w := range windows {
		p.busy += time.Duration(float64(w.busy) / w.pace)
		p.cpu += time.Duration(float64(w.cpu) / w.pace)
		p.applied += w.applied
		for _, ms := range w.installMs {
			p.installMs = append(p.installMs, ms/w.pace)
		}
		for _, ms := range w.teardownMs {
			p.teardownMs = append(p.teardownMs, ms/w.pace)
		}
	}
	return p
}

// rate is switch-applied updates per second of load.
func (p pooled) rate() float64 {
	if p.busy <= 0 {
		return 0
	}
	return float64(p.applied) / p.busy.Seconds()
}

// cpuMsPerUpdate is process CPU time per applied update.
func (p pooled) cpuMsPerUpdate() float64 {
	if p.applied == 0 {
		return 0
	}
	return float64(p.cpu) / float64(time.Millisecond) / float64(p.applied)
}

// writeWindows writes a run's windows in time order as measured, for
// looking at how the host behaved during a run.
func writeWindows(path string, windows []window) error {
	type row struct {
		BusyMs      float64   `json:"busy_ms"`
		Applied     uint64    `json:"applied"`
		CPUMs       float64   `json:"cpu_ms"`
		InstallMs   []float64 `json:"install_ms"`
		TeardownMs  []float64 `json:"teardown_ms"`
		ReferenceUs []float64 `json:"reference_us"`
		Pace        float64   `json:"pace"`
	}
	rows := make([]row, len(windows))
	for i, w := range windows {
		rows[i] = row{
			BusyMs:     float64(w.busy) / float64(time.Millisecond),
			Applied:    w.applied,
			CPUMs:      float64(w.cpu) / float64(time.Millisecond),
			InstallMs:  w.installMs,
			TeardownMs: w.teardownMs,
			Pace:       w.pace,
		}
		for _, r := range w.host {
			rows[i].ReferenceUs = append(rows[i].ReferenceUs, float64(r.d)/float64(time.Microsecond))
		}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
