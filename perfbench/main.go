// Command perfbench is the repository's benchmark. One run drives one named
// workload through the runtime's public surface for a fixed time, checks
// every output, and prints one JSON line: end-to-end metrics when
// untraced, per-layer metrics (from spans and counters taken in this
// package, around the calls it makes) when traced.
//
//	perfbench --workload media-batch --seed 1 --seconds 25 --trace 0
//
// run.sh builds it from source and runs it; README.md describes the
// workloads and what each metric should move.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ompssgo/internal/dist"
	_ "ompssgo/internal/suite/distkern" // registers the kernels in spawned workers too
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	window  time.Duration // measured time
	traced  bool
	workers int
	log     io.Writer
}

// result is what a workload hands back. Latencies are in milliseconds.
type result struct {
	attempted, failed int
	invalid           []string // reasons the run's numbers cannot be trusted
	setup             []time.Duration
	jobsMS            []float64 // every measured job's latency
	elapsed           time.Duration
	completed         int     // jobs finished in the window, failed or not
	maxRPS            float64 // open loop only; closed loops report their job rate
	peakRSS           float64 // MB; read at the end of the run when 0
	layer             map[string]float64
	tr                *tracer
	// Traced runs: job p50 of the untraced and traced phase, for
	// bench.trace_overhead_share.
	untracedP50, tracedP50 float64
	// rssAfter, when set, is the job count at which closedLoop reads
	// peakRSS: a workload whose memory grows with every job then reports
	// its footprint after a fixed amount of work, not after however many
	// jobs its speed fitted into the window.
	rssAfter int
}

func (r *result) fail(log io.Writer, format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(log, "perfbench: job failed: "+format+"\n", args...)
	}
}

type workload struct {
	name string
	run  func(runConfig) (*result, error)
}

var workloads = []workload{
	{"media-batch", runMedia},
	{"dag-sessions", runDAG},
	{"serve-open", runServe},
	{"dist-kernels", runDist},
}

func main() {
	dist.MaybeWorker()
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	spanDir := fs.String("span-dir", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		workers: runtime.NumCPU(), // runtime workers and worker processes
		log:     stderr,
	}
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep, err := finish(w.name, cfg, res, *spanDir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// finish turns a result into the printed report and, for traced runs,
// writes the spans.
func finish(name string, cfg runConfig, res *result, spanDir string, stdout io.Writer) (report, error) {
	if res.attempted < 1 {
		return report{}, errors.New("no job was attempted")
	}
	for _, why := range res.invalid {
		fmt.Fprintf(cfg.log, "perfbench: run invalid: %s\n", why)
	}
	correct := res.failed == 0 && len(res.invalid) == 0
	jobs := summarize(res.jobsMS)
	tails, tailP, perSlice := sliceTails(res.jobsMS)
	fmt.Fprintf(stdout, "# %s seed=%d trace=%v jobs=%d attempted=%d failed=%d tail=median of %d-sample slices' p%.2f %.3g setup=%v\n",
		name, cfg.seed, cfg.traced, res.completed, res.attempted, res.failed, perSlice, tailP, tails, res.setup)
	if !cfg.traced {
		if tailP == 0 {
			return report{}, fmt.Errorf("%d jobs are too few for a tail percentile; raise --seconds", jobs.n)
		}
		setup := make([]float64, len(res.setup))
		for i, d := range res.setup {
			setup[i] = d.Seconds()
		}
		rate := float64(res.completed) / res.elapsed.Seconds()
		maxRPS, rss := res.maxRPS, res.peakRSS
		if maxRPS == 0 {
			maxRPS = rate
		}
		if rss == 0 {
			if res.rssAfter > 0 {
				fmt.Fprintf(cfg.log, "perfbench: peak_rss_mb read at the end: %d jobs ran, fewer than the %d it is read after\n",
					res.completed, res.rssAfter)
			}
			rss = peakRSSMB()
		}
		return buildReport(correct, res.attempted, res.failed, endToEnd, map[string]float64{
			"setup_s":     median(setup),
			"jobs_per_s":  rate,
			"job_p50_ms":  jobs.p50,
			"job_tail_ms": median(tails),
			"max_rps":     maxRPS,
			"ok_ratio":    float64(res.attempted-res.failed) / float64(res.attempted),
			"peak_rss_mb": rss,
		})
	}
	vals := res.layer
	if vals == nil {
		vals = map[string]float64{}
	}
	vals["bench.trace_overhead_share"] = ratio(res.tracedP50-res.untracedP50, res.untracedP50)
	if res.tr != nil {
		addSelfTimes(res.tr, vals)
		if spanDir != "" {
			path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
			if err := res.tr.write(path); err != nil {
				return report{}, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	return buildReport(correct, res.attempted, res.failed, perLayer, vals)
}

// peakRSSMB is the benchmark process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// closedLoop runs job back to back until d has passed and returns every
// job's latency in milliseconds and the loop's wall time. job reports a
// wrong output as an error; the loop counts it into res and goes on.
func closedLoop(res *result, log io.Writer, d time.Duration, job func(i int) error) (lat []float64, elapsed time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		err := job(i)
		lat = append(lat, float64(time.Since(t0))/1e6)
		res.attempted++
		if err != nil {
			res.fail(log, "%v", err)
		}
		if len(lat) == res.rssAfter {
			res.peakRSS = peakRSSMB()
		}
	}
	return lat, time.Since(start)
}

// phases runs the workload's closed loop over the whole window. In a
// traced run every other job is traced (job receives the tracer, and nil
// for the untraced ones), so both kinds share the warm-up and any drift:
// the traced jobs' latencies are kept, and the two kinds' p50 give the
// tracing overhead. A traced run calls mark right before and right after
// the window; counters are read there, as deltas over the whole window.
func phases(cfg runConfig, res *result, mark func(begin bool), job func(i int, tr *tracer) error) {
	if cfg.traced && mark != nil {
		mark(true)
	}
	lat, elapsed := closedLoop(res, cfg.log, cfg.window, func(i int) error {
		if cfg.traced && i%2 == 1 {
			return job(i, res.tr)
		}
		return job(i, nil)
	})
	res.elapsed, res.completed, res.jobsMS = elapsed, len(lat), lat
	if !cfg.traced {
		return
	}
	var plain, traced []float64
	for i, v := range lat {
		if i%2 == 1 {
			traced = append(traced, v)
		} else {
			plain = append(plain, v)
		}
	}
	res.jobsMS, res.untracedP50, res.tracedP50 = traced, median(plain), median(traced)
	if mark != nil {
		mark(false)
	}
}

// timeSetup sets up warm+reps times. The first warm set-ups warm the
// process (page cache, allocator, lazily built tables) and are not
// counted; setup_s is the median of the other reps. The heap is collected
// before each set-up, so none pays for an earlier one's garbage.
// timeSetup returns the last set-up; earlier ones are torn down with drop.
func timeSetup[T any](res *result, warm, reps int, setup func() (T, error), drop func(T)) (T, error) {
	var v T
	for i := 0; i < warm+reps; i++ {
		if i > 0 {
			drop(v)
			var zero T
			v = zero // let the collection below free it
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		v, err = setup()
		if err != nil {
			return v, err
		}
		if i >= warm {
			res.setup = append(res.setup, time.Since(t0))
		}
	}
	return v, nil
}
