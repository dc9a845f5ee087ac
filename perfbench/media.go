package main

import (
	"fmt"
	"time"

	"ompssgo/internal/suite"
	sbodytrack "ompssgo/internal/suite/bodytrack"
	scray "ompssgo/internal/suite/cray"
	sh264dec "ompssgo/internal/suite/h264dec"
	smd5 "ompssgo/internal/suite/md5"
	srayrot "ompssgo/internal/suite/rayrot"
	srgbcmy "ompssgo/internal/suite/rgbcmy"
	srotate "ompssgo/internal/suite/rotate"
	"ompssgo/ompss"
)

// mediaMix is one media-batch pass: each app at its default scale,
// repeated so that every app takes roughly a tenth of a second of the
// pass on a 2-CPU host.
var mediaMix = []struct {
	app  string
	reps int
	make func(seed int64) suite.Instance
}{
	{"h264dec", 15, func(s int64) suite.Instance { w := sh264dec.Default(); w.Seed = s; return sh264dec.New(w) }},
	{"rgbcmy", 10, func(s int64) suite.Instance { w := srgbcmy.Default(); w.Seed = s; return srgbcmy.New(w) }},
	{"bodytrack", 1, func(s int64) suite.Instance { w := sbodytrack.Default(); w.Seed = s; return sbodytrack.New(w) }},
	{"ray-rot", 1, func(s int64) suite.Instance { w := srayrot.Default(); w.Seed = s; return srayrot.New(w) }},
	{"md5", 1, func(s int64) suite.Instance { w := smd5.Default(); w.Seed = s; return smd5.New(w) }},
	{"rotate", 3, func(s int64) suite.Instance { w := srotate.Default(); w.Seed = s; return srotate.New(w) }},
	{"c-ray", 2, func(s int64) suite.Instance { w := scray.Default(); w.Seed = s; return scray.New(w) }},
}

// mediaSetups is how many set-ups setup_s is the median of, timed before
// the window and again after it; one set-up takes about 0.7 s.
// mediaRSSAfter is the pass after which peak_rss_mb is read: the default
// session keeps every pass's dependence records, so the footprint grows
// with each pass.
const (
	mediaSetups   = 4
	mediaRSSAfter = 12
)

// runMedia is the media-batch workload: a closed loop of passes over the
// suite apps on one default runtime, every result checked against the
// app's sequential reference.
func runMedia(cfg runConfig) (*result, error) {
	res := &result{rssAfter: mediaRSSAfter}
	// The apps and their inputs are the benchmark's and are built once,
	// outside the timed set-up. The sequential references are computed
	// before any runtime starts: a default runtime's idle workers spin,
	// and would slow them and so inflate seq_ms and parallel_efficiency.
	apps := make([]suite.Instance, len(mediaMix))
	refs := make([]uint64, len(mediaMix))
	seqMS := make([]float64, len(mediaMix))
	for i, m := range mediaMix {
		apps[i] = m.make(cfg.seed*131 + int64(i))
		t0 := time.Now()
		refs[i] = apps[i].RunSeq()
		seqMS[i] = float64(time.Since(t0)) / 1e6
	}

	wallMS := make([][]float64, len(apps))
	pass := func(rt *ompss.Runtime, job int, tr *tracer) error {
		root := tr.begin("bench.job", int32(job), -1)
		defer tr.end(root)
		var bad []string
		for i, m := range mediaMix {
			for r := 0; r < m.reps; r++ {
				sp := tr.begin("suite."+m.app, int32(job), root)
				got := apps[i].RunOmpSs(rt)
				tr.end(sp)
				if tr != nil && sp >= 0 {
					s := tr.spans[sp]
					wallMS[i] = append(wallMS[i], float64(s.End-s.Start)/1e6)
				}
				if got != refs[i] {
					bad = append(bad, fmt.Sprintf("%s checksum %#x, reference %#x", m.app, got, refs[i]))
				}
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("media pass %d: %v", job, bad)
		}
		return nil
	}

	// The set-up is the runtime's start and its first pass, which finishes
	// the lazy set-up (pools, caches) on cold state.
	start := func() (*ompss.Runtime, error) {
		rt := ompss.New(ompss.Workers(cfg.workers))
		res.attempted++
		if err := pass(rt, -1, nil); err != nil {
			res.fail(cfg.log, "first pass: %v", err)
		}
		return rt, nil
	}
	stop := func(rt *ompss.Runtime) { rt.Shutdown() }
	rt, _ := timeSetup(res, 1, mediaSetups, start, stop)

	var win engineWindow
	layer := map[string]float64{}
	if cfg.traced {
		res.tr = newTracer(1 << 16)
	}
	phases(cfg, res, func(begin bool) {
		if begin {
			win.begin(rt)
			return
		}
		win.end(res.completed, layer)
	}, func(i int, tr *tracer) error { return pass(rt, i, tr) })
	rt.Shutdown()
	if !cfg.traced {
		// As on dag-sessions, half the set-ups run after the window, so
		// that setup_s sees the host at two moments. Dropping the runtime
		// first lets the collection before each set-up free what its
		// passes kept.
		rt = nil
		rt, _ = timeSetup(res, 0, mediaSetups, start, stop)
		rt.Shutdown()
		return res, nil
	}
	var seqSum, parSum float64
	for i, m := range mediaMix {
		wall := median(wallMS[i])
		layer["suite."+m.app+".wall_ms"] = wall
		layer["suite."+m.app+".seq_ms"] = seqMS[i]
		seqSum += float64(m.reps) * seqMS[i]
		parSum += float64(m.reps) * wall
	}
	layer["suite.parallel_efficiency"] = ratio(seqSum, parSum*float64(cfg.workers))
	res.layer = layer
	return res, nil
}
