package chaos

import (
	"fmt"
	"runtime"
	"sync"

	"cicero/internal/metrics"
)

// Campaign is a batch of seeds run against one profile, on its backend.
// On the simulator each seed is an independent deterministic run, and
// workers only parallelize across seeds, never within one, so parallelism
// cannot affect results. A live backend runs one seed at a time:
// wall-clock runs contend for the same cores, so parallel seeds would
// perturb each other.
type Campaign struct {
	Profile Profile
	Seeds   []int64
	// Workers caps concurrent simulator seeds; <= 0 selects GOMAXPROCS.
	Workers int
	// Progress, when set, is called after each seed completes (for CLI
	// progress output). It may be called from worker goroutines.
	Progress func(done, total int, res SeedResult)
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	Profile    string
	Results    []SeedResult // in Seeds order
	Violations int
	FlowsDone  int
	FlowsTotal int
	Injected   *metrics.CounterSet
	// FailingSeeds lists seeds with at least one violation.
	FailingSeeds []int64
	// ErrSeeds lists seeds that ended with a run error (e.g. event budget).
	ErrSeeds []int64
}

// Seeds returns n consecutive seeds starting at start.
func Seeds(start int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)
	}
	return out
}

// Run executes the campaign and aggregates results.
func (c Campaign) Run() CampaignResult {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if c.Profile.Backend != "" {
		workers = 1
	}
	if workers > len(c.Seeds) {
		workers = len(c.Seeds)
	}
	results := make([]SeedResult, len(c.Seeds))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				res := RunSeed(c.Profile, c.Seeds[i])
				res.Trace = nil // memory-heavy: replays keep it, violations their sub-traces
				results[i] = res
				if c.Progress != nil {
					mu.Lock()
					done++
					c.Progress(done, len(c.Seeds), res)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range c.Seeds {
		work <- i
	}
	close(work)
	wg.Wait()

	out := CampaignResult{Profile: c.Profile.Defaulted().Name, Results: results, Injected: metrics.NewCounterSet()}
	for _, res := range results {
		out.Violations += len(res.Violations)
		out.FlowsDone += res.FlowsDone
		out.FlowsTotal += res.FlowsTotal
		for name, v := range res.Injected {
			out.Injected.Add(name, v)
		}
		if len(res.Violations) > 0 {
			out.FailingSeeds = append(out.FailingSeeds, res.Seed)
		}
		if res.Err != "" {
			out.ErrSeeds = append(out.ErrSeeds, res.Seed)
		}
	}
	return out
}

// Summary renders a one-line campaign outcome.
func (r CampaignResult) Summary() string {
	return fmt.Sprintf("profile=%s seeds=%d violations=%d flows=%d/%d injected=%d failing=%v errs=%v",
		r.Profile, len(r.Results), r.Violations, r.FlowsDone, r.FlowsTotal,
		r.Injected.Total(), r.FailingSeeds, r.ErrSeeds)
}
