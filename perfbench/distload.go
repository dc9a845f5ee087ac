package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ompssgo/internal/dist"
	"ompssgo/internal/obs"
	"ompssgo/internal/suite/distkern"
	"ompssgo/internal/suite/kmeans"
	"ompssgo/internal/suite/md5"
	"ompssgo/internal/suite/rgbcmy"
	"ompssgo/internal/suite/rotate"
	"ompssgo/ompss"
)

// distKernel is one kernel of a dist-kernels pass: the distributed driver
// and its sequential reference.
type distKernel struct {
	name string
	run  func(*dist.RT) (uint64, error)
	seq  func() uint64
}

// distPass is distkern.Default()'s kernel set at the same sizes, with
// every input seeded from the benchmark seed.
func distPass(seed int64) []distKernel {
	rw := rotate.Default()
	rw.Seed = seed
	cw := rgbcmy.Default()
	cw.Seed = seed + 1
	mw := md5.Default()
	mw.Seed = seed + 2
	kw := kmeans.Default()
	kw.Seed = seed + 3
	return []distKernel{
		{"rotate", func(rt *dist.RT) (uint64, error) { return distkern.RunRotate(rt, rw) },
			func() uint64 { return rotate.New(rw).RunSeq() }},
		{"rgbcmy", func(rt *dist.RT) (uint64, error) { return distkern.RunRGBCMY(rt, cw) },
			func() uint64 { return rgbcmy.New(cw).RunSeq() }},
		{"md5", func(rt *dist.RT) (uint64, error) { return distkern.RunMD5(rt, mw) },
			func() uint64 { return md5.New(mw).RunSeq() }},
		{"kmeans", func(rt *dist.RT) (uint64, error) { return distkern.RunKMeans(rt, kw) },
			func() uint64 { return kmeans.New(kw).RunSeq() }},
	}
}

// distSetups is how many spawn-and-handshake set-ups setup_s is the
// median of; one takes a few milliseconds. The first distWarm spawns of a
// process run up to twice as slow as later ones, so they are not counted.
// distRSSAfter is the pass after which peak_rss_mb is read: the
// coordinator cannot release a datum, so its footprint grows with each
// pass.
const (
	distWarm     = 30
	distSetups   = 31 // timed before the window and again after it
	distRSSAfter = 8
)

// runDist is the dist-kernels workload: one RunDist over the Unix
// transport with one worker process per CPU, running passes over the
// kernels until the window closes. Worker spawn and handshake is the
// set-up; it is timed on empty runs before and after the measured one.
func runDist(cfg runConfig) (*result, error) {
	res := &result{rssAfter: distRSSAfter}
	unix := ompss.DistTransport(ompss.DistTransportUnix)
	// The set-up is RunDist up to the moment its program starts, counted
	// as in timeSetup.
	spawns := func(warm int) error {
		for i := 0; i < warm+distSetups; i++ {
			runtime.GC()
			t0 := time.Now()
			var up time.Duration
			if _, err := ompss.RunDist(cfg.workers, func(*dist.RT) error {
				up = time.Since(t0)
				return nil
			}, unix); err != nil {
				return fmt.Errorf("set-up run: %w", err)
			}
			if i >= warm {
				res.setup = append(res.setup, up)
			}
		}
		return nil
	}
	if err := spawns(distWarm); err != nil {
		return nil, err
	}

	// The references come after the set-up, which then runs in a
	// process as small as at start.
	kernels := distPass(cfg.seed)
	refs := make([]uint64, len(kernels))
	seqMS := make([]float64, len(kernels))
	for i, k := range kernels {
		t0 := time.Now()
		refs[i] = k.seq()
		seqMS[i] = float64(time.Since(t0)) / 1e6
	}

	wallMS := make([][]float64, len(kernels))
	pass := func(rt *dist.RT, job int, tr *tracer) error {
		root := tr.begin("bench.job", int32(job), -1)
		defer tr.end(root)
		var bad []string
		for i, k := range kernels {
			sp := tr.begin("dist."+k.name, int32(job), root)
			got, err := k.run(rt)
			tr.end(sp)
			if tr != nil && sp >= 0 {
				s := tr.spans[sp]
				wallMS[i] = append(wallMS[i], float64(s.End-s.Start)/1e6)
			}
			switch {
			case err != nil:
				bad = append(bad, fmt.Sprintf("%s: %v", k.name, err))
			case got != refs[i]:
				bad = append(bad, fmt.Sprintf("%s checksum %#x, reference %#x", k.name, got, refs[i]))
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("dist pass %d: %v", job, bad)
		}
		return nil
	}
	if cfg.traced {
		res.tr = newTracer(1 << 14)
	}
	stats, err := ompss.RunDist(cfg.workers, func(rt *dist.RT) error {
		res.attempted++
		if err := pass(rt, -1, nil); err != nil { // untimed: caches and pools fill
			res.fail(cfg.log, "%v", err)
		}
		phases(cfg, res, nil, func(i int, tr *tracer) error { return pass(rt, i, tr) })
		return nil
	}, unix)
	if err != nil {
		return nil, fmt.Errorf("measured run: %w", err)
	}

	// Outside the window: one traced pass whose merged cross-process trace
	// must reconcile with the run's accounting.
	res.attempted++
	if err := reconcile(cfg.workers, kernels); err != nil {
		res.fail(cfg.log, "trace reconcile: %v", err)
	}
	if !cfg.traced {
		// As on dag-sessions, half the set-ups run after the window, so
		// that setup_s sees the host at two moments.
		if err := spawns(distWarm / 6); err != nil {
			return nil, err
		}
		return res, nil
	}

	layer := map[string]float64{}
	tasks := float64(stats.Tasks)
	layer["dist.round_trips_per_task"] = ratio(float64(stats.RoundTrips), tasks)
	layer["dist.bytes_to_workers_per_task"] = ratio(float64(stats.BytesToWorkers), tasks)
	layer["dist.cache_hit_ratio"] = ratio(float64(stats.TransfersAvoided), float64(stats.Transfers+stats.TransfersAvoided))
	layer["dist.chained_task_share"] = ratio(float64(stats.ChainedTasks), tasks)
	layer["dist.forward_fallback_ratio"] = ratio(float64(stats.ForwardFallbacks), float64(stats.Forwards))
	layer["dist.workers_lost"] = float64(stats.WorkersLost)
	payload := 0
	if stats.RoundTrips > 0 {
		payload = int(stats.BytesToWorkers / int64(stats.RoundTrips))
	}
	rt, allocs, err := frameRoundTrip(payload)
	if err != nil {
		return nil, err
	}
	layer["dist.frame_rt_us_p50"] = rt
	layer["dist.frame_allocs"] = allocs
	for i, k := range kernels {
		wall := median(wallMS[i])
		layer["dist."+k.name+".wall_ms"] = wall
		layer["dist."+k.name+".wire_share"] = 1 - ratio(seqMS[i], wall)
	}
	res.layer = layer
	return res, nil
}

// reconcile runs one pass with worker tracing on and checks the merged
// trace against the run's Stats.
func reconcile(workers int, kernels []distKernel) error {
	var merged *obs.Trace
	stats, err := ompss.RunDist(workers, func(rt *dist.RT) error {
		for _, k := range kernels {
			if _, err := k.run(rt); err != nil {
				return fmt.Errorf("%s: %w", k.name, err)
			}
		}
		return nil
	}, ompss.DistTransport(ompss.DistTransportUnix), ompss.DistTraceSink(func(t *obs.Trace) { merged = t }))
	if err != nil {
		return err
	}
	if merged == nil {
		return fmt.Errorf("trace sink never ran")
	}
	return dist.ReconcileTrace(merged, stats)
}

// frameRoundTrip encodes and decodes a task frame carrying payload bytes
// and returns the median round trip in microseconds and the allocations
// one round trip makes.
func frameRoundTrip(payload int) (p50us, allocs float64, err error) {
	f := &dist.Frame{Task: &dist.TaskMsg{
		ID: 1, Kernel: "rgbcmy", Args: make([]byte, 16), NIn: 1,
		Reads:  []dist.WireRef{{Datum: 1, Ver: 2, Size: int64(payload), Bytes: make([]byte, payload)}},
		Writes: []dist.WireOut{{Datum: 3, Ver: 4, Size: int64(payload), SeedFrom: -1}},
	}}
	var buf bytes.Buffer
	once := func() error {
		buf.Reset()
		if err := dist.WriteFrame(&buf, f); err != nil {
			return err
		}
		_, err := dist.ReadFrame(&buf)
		return err
	}
	const n = 200
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		if err := once(); err != nil {
			return 0, 0, fmt.Errorf("frame round trip: %w", err)
		}
		us[i] = float64(time.Since(t0)) / 1e3
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := once(); err != nil {
			return 0, 0, fmt.Errorf("frame round trip: %w", err)
		}
	}
	runtime.ReadMemStats(&m1)
	return median(us), float64(m1.Mallocs-m0.Mallocs) / n, nil
}
