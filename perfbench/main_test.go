package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ompssgo/internal/dist"
)

func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 37, 100, 1000, 4375} {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending input: summarize must sort
		}
		sum := summarize(s)
		beyond := 0
		for _, v := range s {
			if v > sum.tail {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail %v, want %d", n, beyond, sum.tail, tailBeyond)
		}
		if want := 100 * float64(n-10) / float64(n); sum.tailP != want {
			t.Errorf("n=%d: tail percentile %v, want %v", n, sum.tailP, want)
		}
	}
	if _, ok := tailPercentile(10); ok {
		t.Error("10 samples cannot have a tail with 10 beyond it")
	}
}

func TestSlicedTailIgnoresOneStalledSlice(t *testing.T) {
	s := make([]float64, 2000)
	for i := range s {
		s[i] = 1 + float64(i%50)/100
	}
	tails, _, per := sliceTails(s)
	calm := median(tails)
	for i := 100; i < 130; i++ { // a stall inside the second slice
		s[i] = 80
	}
	tails, p, _ := sliceTails(s)
	if stalled := median(tails); stalled != calm {
		t.Errorf("one stalled slice moved the tail from %v to %v", calm, stalled)
	}
	if per != 100 || p != 90 {
		t.Errorf("slices of %d samples at p%v, want 100 at p90", per, p)
	}
	short, _, per := sliceTails(s[:30])
	if per != 30 || len(short) != 1 || short[0] != summarize(s[:30]).tail {
		t.Errorf("a run under %d samples must use one slice", sliceMin)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{Name: "bench.job", Start: 0, End: 100, Parent: -1},
		{Name: "ompss.submit", Start: 10, End: 40, Parent: 0},
		{Name: "ompss.taskwait", Start: 30, End: 60, Parent: 0}, // overlaps its sibling
		{Name: "kernel.body", Start: 15, End: 20, Parent: 1},
		{Name: "kernel.body", Start: 90, End: 130, Parent: 0}, // runs past its parent
		{Name: "bench.job", Start: 200, End: 210, Parent: -1, Job: 1},
	}
	got, jobs := selfTimes(spans)
	want := map[string]int64{
		"bench":  100 - (50 + 10) + 10, // union 10..60 and 90..100 covered
		"ompss":  (30 - 5) + 30,
		"kernel": 5 + 40,
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %d, want %d", l, got[l], w)
		}
	}
	if jobs != 2 {
		t.Errorf("%d jobs, want 2", jobs)
	}
}

// The name and unit charsets of the benchmark output format.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-] or too long", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s has unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the format's limits", len(perLayer), len(endToEnd))
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the printed
// vocabulary the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// runCLI runs the benchmark in-process and decodes its last line.
func runCLI(t *testing.T, args ...string) report {
	t.Helper()
	var out, errb bytes.Buffer
	if code := cli(args, &out, &errb); code != 0 {
		t.Fatalf("perfbench %v exited %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

// TestEveryMetricPrintedWithUnit checks both outputs carry exactly the
// declared metrics, each with its unit.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		r := runCLI(t, "--workload", "dag-sessions", "--seed", "3", "--seconds", "2", "--trace", tc.trace)
		if len(r.Metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics printed, want %d", tc.trace, len(r.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			m, ok := r.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s printed as %+v, want unit %s", tc.trace, d.name, m, d.unit)
			}
		}
	}
}

// TestTwoSeedsGiveValidRuns runs the two fastest workloads under two seeds.
func TestTwoSeedsGiveValidRuns(t *testing.T) {
	for _, wl := range []string{"dag-sessions", "serve-open"} {
		for _, seed := range []string{"1", "2"} {
			r := runCLI(t, "--workload", wl, "--seed", seed, "--seconds", "2", "--trace", "0")
			// Under the race detector the generator falls behind, which
			// marks the run invalid; outputs must still all be right.
			if (!r.Correct && !raceEnabled) || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s seed %s: correct=%v attempted=%d failed=%d", wl, seed, r.Correct, r.Attempted, r.Failed)
			}
			for _, name := range []string{"setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms", "max_rps", "peak_rss_mb"} {
				if v := r.Metrics[name].Value; v <= 0 {
					t.Errorf("%s seed %s: %s = %v, want > 0", wl, seed, name, v)
				}
			}
		}
	}
	if a, b := newDAGPlan(1, 0), newDAGPlan(2, 0); a.salt == b.salt || a.want == b.want {
		t.Error("two seeds generated the same DAG")
	}
}

// stallHandler answers every request in turn (one at a time, like a
// server with one thread) and holds the request of index stallAt for
// stall: requests due during the stall queue behind it.
type stallHandler struct {
	mu      sync.Mutex
	n       int
	stallAt int
	stall   time.Duration
}

func (h *stallHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == h.stallAt {
		time.Sleep(h.stall)
	}
	h.n++
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(`{"bench":"rotate","checksum":"0x1"}`))
}

// TestOpenLoopCountsStallAgainstLaterRequests: a closed-loop client would
// wait out a stall and then send, hiding it; the open loop keeps sending
// on schedule and times every request from its due time, so the requests
// due during the stall show it.
func TestOpenLoopCountsStallAgainstLaterRequests(t *testing.T) {
	const rate, stall = 200.0, 100 * time.Millisecond // a request every 5 ms
	s := &server{h: &stallHandler{stallAt: 20, stall: stall}, sums: map[int]string{}}
	sc := &schedule{rng: rand.New(rand.NewSource(1))}
	outs := s.openLoop(sc, rate, 300*time.Millisecond)
	// Request 24 is due 20 ms into the stall; it cannot finish before the
	// stall ends, 80 ms after its due time.
	if got := outs[24].exit; got < 70*time.Millisecond {
		t.Errorf("request due during the stall took %v from its due time, want at least 70ms", got)
	}
	if got := outs[len(outs)-1].exit; got > 50*time.Millisecond {
		t.Errorf("last request took %v: the backlog should have drained", got)
	}
	// The generator itself kept its schedule through the stall.
	if lag := lateness(outs); lag.tail > 10 {
		t.Errorf("generator lag tail %.2f ms during a handler stall", lag.tail)
	}
}
