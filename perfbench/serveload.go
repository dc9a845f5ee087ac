package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"ompssgo/internal/serve"
	"ompssgo/ompss"
)

// The serve-open workload: independent clients modelled as an open loop
// at fixed arrival rates through the in-process serve handler, on a
// runtime configured like ompss-serve's defaults.
const (
	serveRate      = 150.0                  // nominal arrivals per second for the latency metrics
	serveSenders   = 256                    // requests in flight at most; more wait in the generator
	serveLimit     = 100 * time.Millisecond // latency limit a ladder rung's tail must meet
	serveLagLimit  = 20 * time.Millisecond  // median generator lateness that invalidates the run
	serveFaultStep = 7                      // every 7th request is /v1/fault
	serveWarmup    = 500 * time.Millisecond
	serveSetups    = 15 // timed before the window and again after it; one takes about 30 ms
	backlogSlack   = 5 * time.Millisecond
)

// serveLadder holds the arrival rates max_rps climbs, lowest first. It
// reaches well past the knee (about 850 req/s on a 2-CPU host), so that a
// faster host or program does not meet its top.
var serveLadder = []float64{650, 750, 850, 950, 1050, 1150, 1250, 1350, 1450}

var tenants = []string{"gold", "silver", "bronze"}

// reqPlan is one scheduled request.
type reqPlan struct {
	route  int // index into serveRoutes
	tenant string
}

// outcome is what one request saw. Times are offsets from its due time.
type outcome struct {
	route            int
	due              time.Time
	lag, entry, exit time.Duration // generator hand-off, handler entry, handler exit
	sessionNS        int64         // server-reported elapsed_ns
	err              string
	refused          bool
}

type server struct {
	rt   *ompss.Runtime
	srv  *serve.Server
	h    http.Handler
	sums map[int]string // route -> checksum every reply must repeat
}

func newServer(workers int) (*server, error) {
	rt := ompss.New(ompss.Workers(workers), ompss.Wait(ompss.Blocking),
		ompss.WithTuning(ompss.Tuning{Grain: ompss.Auto, StealBackoff: ompss.Auto}))
	srv := serve.New(rt, serve.Config{SessionInFlight: 256, Admission: ompss.BlockOnFull})
	s := &server{rt: rt, srv: srv, h: srv.Handler(), sums: map[int]string{}}
	// Warm every route: the server computes its references lazily.
	for r := range serveRoutes {
		o, resp := s.send(reqPlan{route: r, tenant: tenants[0]}, time.Now())
		if o.err != "" {
			rt.Shutdown()
			return nil, fmt.Errorf("warm-up %s: %s", serveRoutes[r], o.err)
		}
		if serveRoutes[r] != "fault" {
			s.sums[r] = resp.Checksum
		}
	}
	return s, nil
}

// send issues one request due at due and checks the reply.
func (s *server) send(p reqPlan, due time.Time) (outcome, serve.Response) {
	name := serveRoutes[p.route]
	req := httptest.NewRequest(http.MethodGet, "/v1/"+name, nil)
	req.Header.Set("X-Tenant", p.tenant)
	rec := httptest.NewRecorder()
	o := outcome{route: p.route, due: due, entry: time.Since(due)}
	s.h.ServeHTTP(rec, req)
	o.exit = time.Since(due)
	var resp serve.Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil && rec.Code != http.StatusServiceUnavailable {
		o.err = fmt.Sprintf("%s: status %d, undecodable body: %v", name, rec.Code, err)
		return o, resp
	}
	o.sessionNS = resp.ElapsedNS
	switch {
	case rec.Code == http.StatusServiceUnavailable || strings.Contains(resp.Error, ompss.ErrAdmission.Error()):
		o.refused = true
		o.err = fmt.Sprintf("%s: refused (status %d)", name, rec.Code)
	case name == "fault":
		// The fault endpoint's head fails and its four dependents skip.
		if rec.Code != http.StatusInternalServerError || resp.Bench != "fault" || resp.Skipped != 4 ||
			!strings.Contains(resp.Error, "injected fault") {
			o.err = fmt.Sprintf("fault: status %d, bench %q, skipped %d, error %q", rec.Code, resp.Bench, resp.Skipped, resp.Error)
		}
	case rec.Code != http.StatusOK || resp.Error != "" || resp.Skipped != 0:
		o.err = fmt.Sprintf("%s: status %d, skipped %d, error %q", name, rec.Code, resp.Skipped, resp.Error)
	case s.sums[p.route] != "" && resp.Checksum != s.sums[p.route]:
		o.err = fmt.Sprintf("%s: checksum %s, earlier replies %s", name, resp.Checksum, s.sums[p.route])
	}
	return o, resp
}

// schedule is the seeded request sequence: kernel routes in a shuffled
// order per round of three, a fault every serveFaultStep-th request, and
// tenants cycled.
type schedule struct {
	rng   *rand.Rand
	i     int
	round []int
}

func (sc *schedule) next() reqPlan {
	sc.i++
	p := reqPlan{tenant: tenants[sc.i%len(tenants)]}
	if sc.i%serveFaultStep == 0 {
		p.route = len(serveRoutes) - 1
		return p
	}
	if len(sc.round) == 0 {
		sc.round = sc.rng.Perm(len(serveRoutes) - 1)
	}
	p.route, sc.round = sc.round[0], sc.round[1:]
	return p
}

// openLoop issues requests at rate for d, each at its due time whether or
// not earlier ones have answered, and waits for all of them. A request's
// latency runs from its due time, so a stall delays every request queued
// behind it.
func (s *server) openLoop(sc *schedule, rate float64, d time.Duration) []outcome {
	n := max(int(rate*d.Seconds()), 0)
	outs := make([]outcome, n)
	interval := time.Duration(float64(time.Second) / rate)
	sem := make(chan struct{}, serveSenders)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		lag := time.Since(due)
		p := sc.next()
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			o, _ := s.send(p, due)
			o.lag = lag
			outs[i] = o
			<-sem
		}(i, due)
	}
	wg.Wait()
	return outs
}

// tally folds a phase's outcomes into the result and returns their
// latencies (due to reply) in milliseconds.
func tally(res *result, log io.Writer, outs []outcome) []float64 {
	lat := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = float64(o.exit) / 1e6
		res.attempted++
		if o.err != "" {
			res.fail(log, "%s", o.err)
		}
	}
	return lat
}

// lateness summarizes how late the generator handed requests off, in
// milliseconds.
func lateness(outs []outcome) summary {
	lags := make([]float64, len(outs))
	for i, o := range outs {
		lags[i] = float64(o.lag) / 1e6
	}
	return summarize(lags)
}

// checkLag marks the run invalid when the generator fell behind its own
// schedule at the nominal rate, where the server is far from saturated:
// when its median hand-off is late. A stall of the whole host delays the
// generator for a moment too, but it catches up at once, and the requests
// it delayed are still timed from their due times.
func checkLag(res *result, outs []outcome) {
	if lag := lateness(outs).p50; lag > float64(serveLagLimit)/1e6 {
		res.invalid = append(res.invalid, fmt.Sprintf("generator's median hand-off %.2f ms late at %.0f req/s (limit %v)", lag, serveRate, serveLagLimit))
	}
}

// rungPasses reports whether a ladder rung met the latency limit with no
// failed request and no growing backlog. The limit applies to the rung's
// job_tail_ms, the median of its slices' tails, so one host stall does
// not fail a rung. The backlog grows when the last quarter's median
// latency exceeds twice the first quarter's by more than backlogSlack (a
// backlog that grows through the rung shows there; a transient stall
// does not).
func rungPasses(outs []outcome) bool {
	lat := make([]float64, len(outs))
	for i, o := range outs {
		if o.err != "" {
			return false
		}
		lat[i] = float64(o.exit) / 1e6
	}
	q := len(lat) / 4
	first, last := median(lat[:q]), median(lat[len(lat)-q:])
	growing := last > 2*first+float64(backlogSlack)/1e6
	tails, _, _ := sliceTails(lat)
	return median(tails) <= float64(serveLimit)/1e6 && !growing
}

func runServe(cfg runConfig) (*result, error) {
	res := &result{}
	start := func() (*server, error) { return newServer(cfg.workers) }
	stop := func(s *server) { s.rt.Shutdown() }
	s, err := timeSetup(res, 1, serveSetups, start, stop)
	if err != nil {
		return nil, err
	}
	defer s.rt.Shutdown()
	sc := &schedule{rng: rand.New(rand.NewSource(cfg.seed))}
	s.openLoop(sc, serveRate, serveWarmup)

	if !cfg.traced {
		nominal := cfg.window * 7 / 10
		t0 := time.Now()
		outs := s.openLoop(sc, serveRate, nominal)
		res.elapsed = time.Since(t0)
		res.jobsMS = tally(res, cfg.log, outs)
		res.completed = len(outs)
		res.peakRSS = peakRSSMB() // before the ladder's overload rungs
		checkLag(res, outs)
		// The step up from the nominal rate is a transient the feedback
		// loops take about a second to absorb: the first rung's rate runs
		// unjudged for one rung's time before the ladder starts. A climb
		// to the knee takes about seven rungs, with the warm-up and the
		// halfway rung; a faster host or program climbs further.
		rung := (cfg.window - nominal) / 7
		tally(res, cfg.log, s.openLoop(sc, serveLadder[0], rung))
		climb := func(rate float64) bool {
			t0 := time.Now()
			outs := s.openLoop(sc, rate, rung)
			el := time.Since(t0)
			rl := summarize(tally(res, cfg.log, outs))
			ok := rungPasses(outs)
			fmt.Fprintf(cfg.log, "perfbench: rung %.0f req/s: %d requests, p50 %.2f ms, tail %.2f ms (p%.1f), pass %v\n",
				rate, len(outs), rl.p50, rl.tail, rl.tailP, ok)
			if ok {
				res.maxRPS = float64(len(outs)) / el.Seconds()
			}
			return ok
		}
		// Climb until two rungs in a row miss, then try halfway between
		// the highest passing rung and the one above it.
		top, misses := -1, 0
		for i := 0; i < len(serveLadder) && misses < 2; i++ {
			if climb(serveLadder[i]) {
				top, misses = i, 0
			} else {
				misses++
			}
		}
		if top >= 0 && top+1 < len(serveLadder) {
			climb((serveLadder[top] + serveLadder[top+1]) / 2)
		}
		if res.maxRPS == 0 {
			res.maxRPS = float64(res.completed) / res.elapsed.Seconds()
		}
		// As on dag-sessions, half the set-ups run after the window, so
		// that setup_s sees the host at two moments.
		s.rt.Shutdown()
		last, err := timeSetup(res, 1, serveSetups, start, stop)
		if err != nil {
			return nil, err
		}
		last.rt.Shutdown()
		return res, nil
	}

	// Traced run: every other request is recorded as spans and samples,
	// from its outcome once the window is over.
	res.tr = newTracer(1 << 18)
	before := s.srv.Violations()
	layer := map[string]float64{}
	var win engineWindow
	win.begin(s.rt)
	t0 := time.Now()
	outs := s.openLoop(sc, serveRate, cfg.window)
	res.elapsed = time.Since(t0)
	win.end(len(outs), layer)
	tuneSetpoints(s.rt, layer)
	lat := tally(res, cfg.log, outs)
	var (
		plain, queue, handler, session, overhead []float64
		perRoute                                 = make([][]float64, len(serveRoutes))
		refused                                  int
	)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for i, o := range outs {
		if o.refused {
			refused++
		}
		if i%2 == 0 {
			plain = append(plain, lat[i])
			continue
		}
		res.jobsMS = append(res.jobsMS, lat[i])
		d0 := int64(o.due.Sub(res.tr.base))
		root := res.tr.add("bench.request", int32(i), -1, d0, d0+int64(o.exit))
		res.tr.add("serve.handler", int32(i), root, d0+int64(o.entry), d0+int64(o.exit))
		queue = append(queue, ms(o.entry))
		handler = append(handler, ms(o.exit-o.entry))
		session = append(session, float64(o.sessionNS)/1e6)
		overhead = append(overhead, ms(o.exit-o.entry)-float64(o.sessionNS)/1e6)
		perRoute[o.route] = append(perRoute[o.route], lat[i])
	}
	res.completed = len(outs)
	res.untracedP50, res.tracedP50 = median(plain), median(res.jobsMS)
	checkLag(res, outs)

	q, h, se := summarize(queue), summarize(handler), summarize(session)
	layer["serve.queue_ms_p50"], layer["serve.queue_ms_tail"] = q.p50, q.tail
	layer["serve.handler_ms_p50"], layer["serve.handler_ms_tail"] = h.p50, h.tail
	layer["serve.session_ms_p50"], layer["serve.session_ms_tail"] = se.p50, se.tail
	layer["serve.overhead_ms_p50"] = median(overhead)
	for r, name := range serveRoutes {
		rs := summarize(perRoute[r])
		layer["serve."+name+".p50_ms"], layer["serve."+name+".tail_ms"] = rs.p50, rs.tail
	}
	layer["serve.violations"] = float64(s.srv.Violations() - before)
	layer["serve.refused"] = float64(refused)
	layer["bench.gen_lag_ms_tail"] = lateness(outs).tail
	res.layer = layer
	return res, nil
}
