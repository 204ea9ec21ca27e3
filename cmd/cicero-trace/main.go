// Command cicero-trace merges the per-process trace files a distributed
// deployment writes (one JSONL file per node boot, plus the supervisor's)
// into one causally ordered timeline. Each line is a fabric.Record, the
// record chaos replays print, stamped by its process with a sequence
// number and a Lamport clock that the TCP fabric threads through each
// frame, so sorting the union by clock is causally consistent: an apply
// always lands after the dispatch it references, even across processes
// that never shared a wall clock.
//
// Usage:
//
//	cicero-trace [-check] [-o merged.jsonl] trace-*.jsonl
//	cicero-trace -check /path/to/trace-dir
//
// Directory arguments expand to every trace-*.jsonl inside. -check
// verifies the merged timeline's causal structure (per-process order
// preserved, every referenced apply preceded by its dispatch) and exits
// nonzero on violation. Without -o the merged timeline prints to stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cicero/internal/distrib"
)

func main() {
	var (
		check = flag.Bool("check", false, "verify causal structure; exit nonzero on violation")
		out   = flag.String("o", "", "write merged timeline here instead of stdout")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "cicero-trace: no trace files given")
		flag.Usage()
		os.Exit(2)
	}

	var paths []string
	for _, arg := range flag.Args() {
		info, err := os.Stat(arg)
		exitOn(err, 2)
		if info.IsDir() {
			matches, err := filepath.Glob(filepath.Join(arg, "trace-*.jsonl"))
			exitOn(err, 2)
			sort.Strings(matches)
			paths = append(paths, matches...)
		} else {
			paths = append(paths, arg)
		}
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "cicero-trace: no trace files found")
		os.Exit(2)
	}

	merged, err := distrib.MergeTraces(paths)
	exitOn(err, 1)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		exitOn(err, 1)
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	for _, line := range merged {
		exitOn(enc.Encode(line), 1)
	}
	fmt.Fprintf(os.Stderr, "cicero-trace: merged %d records from %d files\n", len(merged), len(paths))

	if *check {
		violations := distrib.CheckCausal(merged)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "cicero-trace: CAUSAL VIOLATION: %s\n", v)
		}
		if len(violations) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cicero-trace: causal order verified (%d records)\n", len(merged))
	}
}

// exitOn reports err and exits with code, if err is not nil.
func exitOn(err error, code int) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "cicero-trace: %v\n", err)
		os.Exit(code)
	}
}
