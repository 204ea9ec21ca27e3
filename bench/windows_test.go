package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }

func TestPaceIsMedianOverNominal(t *testing.T) {
	if got := pace(nil); got != 0 {
		t.Errorf("pace of no readings = %v, want 0", got)
	}
	rs := []reading{{d: referenceNominal}, {d: 3 * referenceNominal}, {d: 40 * referenceNominal}}
	if got := pace(rs); !near(got, 3) {
		t.Errorf("pace = %v, want the median reading over nominal, 3", got)
	}
}

// TestCutWindows cuts a made-up phase of three whole windows and a short
// tail, the host twice as slow as nominal in the third.
func TestCutWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	op := func(startMs, endMs, hops int, install bool) opSpan {
		return opSpan{install: install, hops: hops, start: at(startMs), end: at(endMs)}
	}
	host := func(ms int, x float64) reading {
		return reading{at: at(ms), d: time.Duration(x * float64(referenceNominal))}
	}
	p := phaseResult{
		ticks: []tick{
			{at: at(0), cpu: 0},
			{at: at(500), cpu: 800 * time.Millisecond},
			{at: at(1000), cpu: 1600 * time.Millisecond},
			{at: at(1500), cpu: 2400 * time.Millisecond},
			{at: at(1600), cpu: 2500 * time.Millisecond},
		},
		ops: []opSpan{
			op(0, 100, 3, true), op(100, 300, 3, false), // window 0
			op(300, 700, 1, true),                            // window 1
			op(700, 1400, 3, true), op(1000, 1450, 3, false), // window 2
			op(1450, 1580, 3, true), // the tail
		},
	}
	readings := []reading{
		host(-50, 9), // before the phase: not the first window's
		host(100, 1), host(200, 1), host(400, 1),
		host(600, 1), host(800, 1), host(900, 1),
		host(1100, 2), host(1200, 2), host(1300, 2), host(1400, 2),
	}
	ws := cutWindows(p, readings, false)
	if len(ws) != 3 {
		t.Fatalf("cut %d windows, want 3 (the 100 ms tail is left out)", len(ws))
	}
	for i, want := range []struct {
		applied  uint64
		installs int
		tears    int
		pace     float64
	}{
		{6, 1, 1, 1}, // readings of windows 0 and 1: all 1
		{1, 1, 0, 1}, // windows 0, 1, 2: six readings of 1, four of 2
		{6, 1, 1, 2}, // windows 1 and 2 (the tail has no readings): three of 1, four of 2
	} {
		w := ws[i]
		if w.applied != want.applied || len(w.installMs) != want.installs || len(w.teardownMs) != want.tears {
			t.Errorf("window %d: applied %d, %d installs, %d teardowns, want %+v", i, w.applied, len(w.installMs), len(w.teardownMs), want)
		}
		if !near(w.pace, want.pace) {
			t.Errorf("window %d: pace %v, want %v", i, w.pace, want.pace)
		}
		if w.busy != 500*time.Millisecond || w.cpu != 800*time.Millisecond {
			t.Errorf("window %d: busy %v, cpu %v, want 500ms and 800ms", i, w.busy, w.cpu)
		}
	}

	// Pooled, the slow window counts for half its time.
	pl := pool(ws)
	if want := 1250 * time.Millisecond; pl.busy != want {
		t.Errorf("pooled load time %v, want %v", pl.busy, want)
	}
	if want := 13.0 / 1.25; !near(pl.rate(), want) {
		t.Errorf("pooled rate %v, want %v", pl.rate(), want)
	}
	if want := 2000.0 / 13; !near(pl.cpuMsPerUpdate(), want) {
		t.Errorf("pooled CPU per update %v ms, want %v", pl.cpuMsPerUpdate(), want)
	}
	// The 700 ms install of the slow window reads 350 ms.
	if got := percentile(pl.installMs, 1); !near(got, 400) {
		t.Errorf("longest pooled install %v ms, want 400 (window 1's, as the slow window's 700 reads 350)", got)
	}

	// Drained between operations, a window's load time is its operations'.
	seq := cutWindows(p, readings, true)
	if len(seq) != 3 || seq[0].busy != 300*time.Millisecond || seq[1].busy != 400*time.Millisecond {
		t.Errorf("sequential load times: %v, want 300ms and 400ms first", seq)
	}

	// A window around which the host was never read is left out.
	if ws := cutWindows(p, nil, false); len(ws) != 0 {
		t.Errorf("kept %d windows with no reading of the host", len(ws))
	}
}

func TestReferenceKernelRuns(t *testing.T) {
	r, err := readReference(newReferenceDoc())
	if err != nil || r.d <= 0 || r.at.IsZero() {
		t.Errorf("reading %+v, error %v", r, err)
	}
}

func TestHostReaderBetween(t *testing.T) {
	t0 := time.Unix(2000, 0)
	h := &hostReader{}
	for i := 0; i < 10; i++ {
		h.readings = append(h.readings, reading{at: t0.Add(time.Duration(i) * 25 * time.Millisecond), d: time.Duration(i)})
	}
	got := h.between(t0.Add(50*time.Millisecond), t0.Add(110*time.Millisecond))
	if len(got) != 3 || got[0].d != 2 || got[2].d != 4 {
		t.Errorf("between = %+v, want the readings at 50, 75 and 100 ms", got)
	}
	if got := h.between(t0.Add(time.Second), t0.Add(2*time.Second)); len(got) != 0 {
		t.Errorf("between after the last reading = %+v, want none", got)
	}
}
