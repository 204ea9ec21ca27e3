package distrib

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"cicero/internal/fabric"
	"cicero/internal/livenet"
)

// Line is one line of a process's trace file: the fabric record, the
// process that wrote it, its sequence number in that process's log, and
// the process's Lamport clock when it was written. The TCP fabric threads
// the same clock through every frame, so any record that causally follows
// another (across any number of processes) has a strictly larger Clock,
// and sorting the union of all per-process files by Clock yields a
// causally consistent total order. The record's digest links dispatches
// to applies.
type Line struct {
	Proc  string `json:"proc"`
	Seq   uint64 `json:"seq"`
	Clock uint64 `json:"clock"`
	fabric.Record
}

// recApply is the kind of a switch's apply record; CheckCausal pairs it
// with the sends of the same digest.
const recApply = "apply"

// traceKeep bounds the records a process keeps in memory; its file holds
// every one.
const traceKeep = 1024

// openTrace returns a process's log and, with a path, the file every
// record also goes to as a Line, stamped with proc, its sequence number
// and clock's next tick. Each line is written straight through, so a
// SIGKILL loses at most the one being written. Without a path the file is
// nil, and closing it does nothing.
func openTrace(path, proc string, clock *livenet.LamportClock) (*fabric.Log, *os.File, error) {
	if path == "" {
		return fabric.NewLog(traceKeep, nil), nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return fabric.NewLog(traceKeep, func(seq uint64, r fabric.Record) {
		line, err := json.Marshal(Line{Proc: proc, Seq: seq, Clock: clock.Tick(), Record: r})
		if err == nil {
			f.Write(append(line, '\n'))
		}
	}), f, nil
}

// ReadTrace parses one per-process trace file. A truncated final line
// (the process was SIGKILLed mid-write) is tolerated and dropped.
func ReadTrace(path string) ([]Line, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Line
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var l Line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			continue // torn tail write from a killed process
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// MergeTraces reads every per-process trace file and merges them into
// one timeline ordered by (Lamport clock, process, seq): the clock makes
// the order causally consistent, the rest makes it total and
// deterministic.
func MergeTraces(paths []string) ([]Line, error) {
	var all []Line
	for _, path := range paths {
		lines, err := ReadTrace(path)
		if err != nil {
			return nil, fmt.Errorf("distrib: trace %s: %w", path, err)
		}
		all = append(all, lines...)
	}
	slices.SortFunc(all, func(a, b Line) int {
		return cmp.Or(cmp.Compare(a.Clock, b.Clock), strings.Compare(a.Proc, b.Proc), cmp.Compare(a.Seq, b.Seq))
	})
	return all, nil
}

// CheckCausal verifies a merged timeline's causal structure:
//
//   - per process, sequence numbers strictly increase and Lamport clocks
//     never decrease (a violated pair means the merge interleaved one
//     process's records out of order);
//   - every apply record whose digest names an update appears after a
//     send of that digest (a switch can only apply an update some
//     controller dispatched causally earlier).
//
// It returns human-readable violations; empty means the timeline is
// causally ordered.
func CheckCausal(lines []Line) []string {
	var violations []string
	lastSeq := make(map[string]uint64)
	lastClock := make(map[string]uint64)
	sent := make(map[string]bool)
	for i, l := range lines {
		if prev, ok := lastSeq[l.Proc]; ok && l.Seq <= prev {
			violations = append(violations,
				fmt.Sprintf("record %d: process %s seq went %d -> %d (out of order in merge)", i, l.Proc, prev, l.Seq))
		}
		lastSeq[l.Proc] = l.Seq
		if prev, ok := lastClock[l.Proc]; ok && l.Clock < prev {
			violations = append(violations,
				fmt.Sprintf("record %d: process %s clock went %d -> %d (merge broke process order)", i, l.Proc, prev, l.Clock))
		}
		lastClock[l.Proc] = l.Clock
		switch {
		case l.Digest == "":
		case l.Kind == fabric.TapSend:
			sent[l.Digest] = true
		case l.Kind == recApply && !sent[l.Digest]:
			violations = append(violations,
				fmt.Sprintf("record %d: %s applied update %.12s with no causally earlier dispatch in the merged timeline", i, l.Proc, l.Digest))
		}
	}
	return violations
}
