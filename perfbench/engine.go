package main

import (
	"time"

	"ompssgo/ompss"
)

// engineWindow reads the engine's counters as deltas over one whole
// window: snapshot at the window's start, again at its end, once every
// job of the window has been waited for. Reading a counter right after a
// single Taskwait could race the retire path; whole-window deltas cannot.
type engineWindow struct {
	rt     *ompss.Runtime
	before ompss.RunStats
	t0     time.Time
}

func (w *engineWindow) begin(rt *ompss.Runtime) {
	w.rt, w.before, w.t0 = rt, rt.Stats(), time.Now()
}

// end adds the core.* counter metrics for a window of jobs.
func (w *engineWindow) end(jobs int, out map[string]float64) {
	after := w.rt.Stats()
	elapsed := time.Since(w.t0).Seconds()
	g, a := w.before.Graph, after.Graph
	s, b := w.before.Sched, after.Sched
	tasks := float64(a.Submitted - g.Submitted)
	out["core.edges_per_task"] = ratio(float64(a.Edges-g.Edges), tasks)
	out["core.renamed_per_job"] = ratio(float64(a.Renamed-g.Renamed), float64(jobs))
	out["core.rename_fallbacks_per_job"] = ratio(float64(a.RenameFallbacks-g.RenameFallbacks), float64(jobs))
	steals := float64(b.Steals - s.Steals)
	out["core.steal_success_ratio"] = ratio(steals, float64(b.StealTries-s.StealTries))
	local := float64(b.LocalPops - s.LocalPops)
	pops := local + float64(b.PrioPops-s.PrioPops) + float64(b.AffinityPops-s.AffinityPops) +
		float64(b.GlobalPops-s.GlobalPops) + steals
	out["core.local_pop_share"] = ratio(local, pops)
	out["core.tasks_per_s"] = ratio(float64(a.Finished-g.Finished), elapsed)
}

// tuneSetpoints adds the feedback controller's setpoints (0 when no loop
// is armed).
func tuneSetpoints(rt *ompss.Runtime, out map[string]float64) {
	sp, ok := rt.TuneSetpoints()
	if !ok {
		return
	}
	out["tune.spin_yields"] = float64(sp.SpinYields)
	out["tune.sleep_cap_us"] = float64(sp.SleepCapNS) / 1e3
	out["tune.rename_cap"] = float64(sp.RenameCap)
}
