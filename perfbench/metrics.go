package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one printed metric, its unit, and whether higher or
// lower is better. The two tables below are the benchmark's whole
// vocabulary: BENCHMARK.json lists exactly these (TestBenchmarkJSONMatchesTables
// holds the two together).
type metricDef struct {
	name, unit, better string
}

// endToEnd is what an untraced run prints: the numbers a user of the
// runtime feels.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_tail_ms", "ms", "lower"},
	{"max_rps", "1/s", "higher"},
	{"ok_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// higherIsBetter lists the per-layer metrics where a rise is an
// improvement; for every other one a fall is. Setpoints (tune.*) have no
// better direction; they are listed as lower, a tighter setting.
var higherIsBetter = map[string]bool{
	"core.renamed_per_job": true, "core.steal_success_ratio": true, "core.local_pop_share": true,
	"core.busy_share": true, "core.tasks_per_s": true, "suite.parallel_efficiency": true,
	"dist.cache_hit_ratio": true, "dist.chained_task_share": true,
}

// Kernels named in per-layer metrics.
var (
	serveRoutes = []string{"rotate", "rgbcmy", "h264dec", "fault"}
	distKernels = []string{"rotate", "rgbcmy", "md5", "kmeans"}
	spanLayers  = []string{"bench", "ompss", "kernel", "suite", "serve", "dist"}
)

// perLayer is what a traced run prints. A workload that does not exercise
// a layer reports 0 for that layer's metrics (README.md lists which
// workload measures which metric).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			better := "lower"
			if higherIsBetter[n] {
				better = "higher"
			}
			defs = append(defs, metricDef{n, unit, better})
		}
	}
	add("us", "ompss.session_open_us")
	add("ns", "ompss.submit_ns_p50", "ompss.submit_ns_tail")
	add("us", "ompss.taskwait_us_p50", "ompss.session_close_us_p50")
	add("allocs", "ompss.allocs_per_task")
	add("B", "ompss.bytes_per_task")
	add("ns", "core.sched_wait_ns_p50", "core.sched_wait_ns_tail", "core.release_ns_p50", "core.release_ns_tail")
	add("count", "core.edges_per_task", "core.renamed_per_job", "core.rename_fallbacks_per_job")
	add("ratio", "core.steal_success_ratio", "core.local_pop_share", "core.busy_share")
	add("1/s", "core.tasks_per_s")
	for _, m := range mediaMix {
		add("ms", "suite."+m.app+".wall_ms", "suite."+m.app+".seq_ms")
	}
	add("ratio", "suite.parallel_efficiency")
	add("ms", "serve.queue_ms_p50", "serve.queue_ms_tail", "serve.handler_ms_p50", "serve.handler_ms_tail",
		"serve.session_ms_p50", "serve.session_ms_tail", "serve.overhead_ms_p50")
	for _, r := range serveRoutes {
		add("ms", "serve."+r+".p50_ms", "serve."+r+".tail_ms")
	}
	add("count", "serve.violations", "serve.refused", "tune.spin_yields")
	add("us", "tune.sleep_cap_us")
	add("count", "tune.rename_cap", "dist.round_trips_per_task")
	add("B", "dist.bytes_to_workers_per_task")
	add("ratio", "dist.cache_hit_ratio", "dist.chained_task_share", "dist.forward_fallback_ratio")
	add("count", "dist.workers_lost")
	add("us", "dist.frame_rt_us_p50")
	add("allocs", "dist.frame_allocs")
	for _, k := range distKernels {
		add("ms", "dist."+k+".wall_ms")
		add("ratio", "dist."+k+".wire_share")
	}
	for _, l := range spanLayers {
		add("ms", l+".self_ms_per_job")
	}
	add("ms", "bench.gen_lag_ms_tail")
	add("ratio", "bench.trace_overhead_share")
	return defs
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailBeyond is how many samples a tail leaves beyond it.
const tailBeyond = 10

// tailPercentile is the highest percentile that leaves at least tailBeyond
// of n samples beyond it: the sample of rank n-10, which is percentile
// 100*(n-10)/n. It moves smoothly with n, so runs of slightly different
// length report nearly the same percentile. ok is false for n <= 10.
func tailPercentile(n int) (p float64, ok bool) {
	if n <= tailBeyond {
		return 0, false
	}
	return 100 * float64(n-tailBeyond) / float64(n), true
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// summary is the p50 and tail of one set of samples.
type summary struct {
	n         int
	p50, tail float64
	tailP     float64 // the percentile tail reports; 0 when n <= 10
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{n: len(s), p50: percentile(s, 50)}
	if p, ok := tailPercentile(len(s)); ok {
		out.tailP, out.tail = p, s[len(s)-tailBeyond-1]
	} else if len(s) > 0 {
		out.tail = s[len(s)-1]
	}
	return out
}

func median(xs []float64) float64 { return summarize(xs).p50 }

// tailSlices is how many consecutive slices a long run's tail is taken
// over; runs of fewer than sliceMin samples use one slice.
const (
	tailSlices = 20
	sliceMin   = 400
)

// sliceTails applies the job_tail_ms rule: the run's samples, in the
// order the jobs ran, are cut into tailSlices equal slices and each
// slice's tail is taken (the highest percentile with tailBeyond samples
// beyond it); job_tail_ms is the median of those tails, so one stall of
// the host moves one slice's tail, not the run's. It also returns the
// percentile the tails were taken at and the samples per slice.
func sliceTails(samples []float64) (tails []float64, p float64, perSlice int) {
	k := 1
	if len(samples) >= sliceMin {
		k = tailSlices
	}
	perSlice = len(samples) / k
	tails = make([]float64, k)
	for i := range tails {
		s := summarize(samples[i*perSlice : (i+1)*perSlice])
		tails[i], p = s.tail, s.tailP
	}
	return tails, p, perSlice
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildReport fills every metric of defs from values (absent names read 0).
func buildReport(correct bool, attempted, failed int, defs []metricDef, values map[string]float64) (report, error) {
	r := report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

func (r report) write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
