// Command bench is the repository's benchmark of record: sustained
// install/teardown load on the live fabrics, end-to-end metrics with
// tracing off, and a traced pass that attributes the time to layers from
// outside the program. See README.md in this directory.
//
// One workload, as the benchmark driver calls it:
//
//	go run ./bench --workload load-inproc-b32 --seed 7 --seconds 10 --trace 0
//
// Every workload, one OS process each, written as a result set:
//
//	go run ./bench [-repeat N]
//
// Two result sets against the bounds in BENCHMARK.json:
//
//	go run ./bench -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	os.Exit(run())
}

// specPath is the benchmark's contract, relative to the repository root
// the command runs from: metric names, units, directions and bounds.
const specPath = "BENCHMARK.json"

// options are the command's flags.
type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	rounds     int
	cycles     int
	repeat     int
	compare    bool
	outDir     string
	cpuProfile string
	memProfile string
	windowsOut string
}

// enough reports whether a run may stop: after -rounds rounds when that
// is set, else when another round as long as the longest so far would end
// after -seconds. The seconds cover set-up and load alike, so a run takes
// the time it was given whatever the share of set-up in it.
func (o options) enough(rounds int, elapsed, longest time.Duration) bool {
	if o.rounds > 0 {
		return rounds >= o.rounds
	}
	return elapsed+longest > time.Duration(o.seconds)*time.Second
}

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: every workload, one process each)")
	flag.Int64Var(&o.seed, "seed", 2020, "seed the operation lists are derived from")
	flag.IntVar(&o.seconds, "seconds", 28, "run whole rounds (set-up, warm-up, load, checks) for this many seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	flag.IntVar(&o.rounds, "rounds", 0, "run exactly this many rounds instead of filling -seconds")
	flag.IntVar(&o.cycles, "cycles", 0, "override the workload's measured cycles per client and round")
	flag.IntVar(&o.repeat, "repeat", 1, "with no -workload: write this many result sets")
	flag.BoolVar(&o.compare, "compare", false, "compare two result sets (arguments: a.json b.json) against the bounds")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for result sets, traces and profiles")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&o.windowsOut, "windows", "", "with -trace 0: write the run's windows (load, updates, CPU, latencies) to this file as JSON")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	hostReader := flag.Bool("host-reader", false, "internal: time the reference kernel until standard input closes (a run starts this process itself)")
	flag.Parse()
	if *hostReader {
		if err := serveReadings(); err != nil {
			return fatal(err)
		}
		return 0
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}()
	}

	var err error
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-compare takes two result sets, got %d arguments", flag.NArg()))
		}
		err = compareFiles(specPath, flag.Arg(0), flag.Arg(1), os.Stdout)
	case o.workload != "":
		err = runOne(o, os.Stdout)
	default:
		err = runAll(o, os.Stdout)
	}
	if err != nil {
		return fatal(err)
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}
