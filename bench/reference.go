package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"
)

// The hosts this benchmark runs on are a few cores of a shared machine,
// and their speed is not constant. For minutes at a time the same
// operations of the same program take up to 1.7 times as long, CPU time
// per update rising with the wall time while the allocation count stays
// where it was: other tenants press on the caches and the memory the
// cores share. Within a run the speed changes every second or two as
// well. Two runs of the same code therefore differ by 10 to 60 % in every
// time they report, whatever statistic of the run is taken (medians, the
// fastest quarter of half-second windows and the fastest tenth were
// tried), and no bound the contract allows would hold.
//
// So the benchmark measures the host together with the program. A second
// process, started by the run and doing nothing else, times a fixed
// reference kernel every referenceEvery: a few JSON round trips of a fixed
// document through the standard library. The kernel shares no code with
// the repository, so no change to the repository moves it. It is the same
// kind of work as the program's (byte scanning, small allocations,
// garbage), so the host's slow spells stretch both alike: over 40 runs
// made while the host's speed moved by a factor of 1.4, rates, CPU times
// and latencies of all four workloads followed the kernel's median with
// an exponent between 0.9 and 1.2 (correlation 0.94 to 0.99). A SHA-256
// loop, which works in registers, moved only a third as far as the
// program, a pointer chase through 64 MB followed it only loosely. The
// reader is its own process so that the program's garbage collector cannot
// make it help with marking in the middle of a reading, which in-process
// readings suffered under the unbatched load.
//
// Every time the benchmark reports is then stated for a host that runs the
// kernel in referenceNominal: a window of load (windows.go) around which
// the readings have the median m has its latencies, its load time and its
// CPU time multiplied by referenceNominal/m. The measured times and the
// kernel's readings are printed beside the scaled ones.

// referenceNominal is about the time the kernel takes on the 2-core box
// this benchmark was built on when nothing disturbs it, so that scaled
// times read like that box's own.
const referenceNominal = 250 * time.Microsecond

// referenceEvery is the pause between two readings.
const referenceEvery = 25 * time.Millisecond

// referenceRounds is the number of round trips in one reading.
const referenceRounds = 12

// refDoc is the document the kernel encodes and decodes: about a kilobyte
// of short strings, numbers and byte strings, the shape of a signed update.
type refDoc struct {
	Kind   string            `json:"kind"`
	Origin string            `json:"origin"`
	Seq    uint64            `json:"seq"`
	Sig    []byte            `json:"sig"`
	Mods   []refMod          `json:"mods"`
	Meta   map[string]string `json:"meta"`
}

type refMod struct {
	Op       int `json:"op"`
	Src, Dst string
	Priority int
	Proof    [][]byte `json:"proof"`
}

func newReferenceDoc() *refDoc {
	rng := rand.New(rand.NewSource(1))
	blob := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	doc := &refDoc{
		Kind:   "batch-update",
		Origin: "pod0/rack3/tor",
		Seq:    12345,
		Sig:    blob(64),
		Meta:   map[string]string{"phase": "3", "root": "abcdef0123456789"},
	}
	for i := 0; i < 3; i++ {
		doc.Mods = append(doc.Mods, refMod{
			Op: i, Src: "pod0/rack1/h2", Dst: "pod0/rack5/h0", Priority: 100,
			Proof: [][]byte{blob(32), blob(32), blob(32), blob(32), blob(32)},
		})
	}
	return doc
}

// reading is one timing of the reference kernel.
type reading struct {
	at time.Time
	d  time.Duration
}

// readReference runs the kernel once.
func readReference(doc *refDoc) (reading, error) {
	start := time.Now()
	for i := 0; i < referenceRounds; i++ {
		data, err := json.Marshal(doc)
		if err != nil {
			return reading{}, err
		}
		var back refDoc
		if err := json.Unmarshal(data, &back); err != nil {
			return reading{}, err
		}
		if len(back.Mods) != len(doc.Mods) {
			return reading{}, fmt.Errorf("reference document did not survive a round trip")
		}
	}
	return reading{at: start, d: time.Since(start)}, nil
}

// serveReadings is the reader process: it prints one reading per line
// (start in Unix nanoseconds, duration in nanoseconds) until its standard
// input is closed, which also happens when the benchmark dies.
func serveReadings() error {
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	doc := newReferenceDoc()
	for {
		r, err := readReference(doc)
		if err != nil {
			return err
		}
		if _, err := fmt.Printf("%d %d\n", r.at.UnixNano(), int64(r.d)); err != nil {
			return err
		}
		time.Sleep(referenceEvery)
	}
}

// hostReader collects the readings of a reader process.
type hostReader struct {
	cmd   *exec.Cmd
	stdin io.Closer
	done  chan struct{}

	mu       sync.Mutex
	readings []reading // in time order
}

// startHostReader starts this executable again as the reader process.
func startHostReader() (*hostReader, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-host-reader")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("host reader: %w", err)
	}
	h := &hostReader{cmd: cmd, stdin: stdin, done: make(chan struct{})}
	first := make(chan struct{})
	go func() {
		defer close(h.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			var at, d int64
			if _, err := fmt.Sscanf(sc.Text(), "%d %d", &at, &d); err != nil {
				continue
			}
			h.mu.Lock()
			h.readings = append(h.readings, reading{at: time.Unix(0, at), d: time.Duration(d)})
			n := len(h.readings)
			h.mu.Unlock()
			if n == 1 {
				close(first)
			}
		}
	}()
	// No round starts before the reader reads.
	select {
	case <-first:
		return h, nil
	case <-h.done:
		h.stop()
		return nil, fmt.Errorf("host reader: ended before its first reading")
	case <-time.After(10 * time.Second):
		h.stop()
		return nil, fmt.Errorf("host reader: no reading within 10 s")
	}
}

// between returns the readings started in [from, to].
func (h *hostReader) between(from, to time.Time) []reading {
	h.mu.Lock()
	defer h.mu.Unlock()
	lo := sort.Search(len(h.readings), func(i int) bool { return !h.readings[i].at.Before(from) })
	hi := sort.Search(len(h.readings), func(i int) bool { return h.readings[i].at.After(to) })
	return append([]reading(nil), h.readings[lo:hi]...)
}

// stop ends the reader process and waits for it.
func (h *hostReader) stop() {
	h.stdin.Close()
	<-h.done
	h.cmd.Wait()
}

// pace is how much slower than nominal the host ran while the readings
// were taken: their median over referenceNominal. 0 for no readings.
func pace(readings []reading) float64 {
	if len(readings) == 0 {
		return 0
	}
	d := make([]float64, len(readings))
	for i, r := range readings {
		d[i] = float64(r.d)
	}
	return median(d) / float64(referenceNominal)
}
