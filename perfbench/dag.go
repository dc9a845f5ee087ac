package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ompssgo/ompss"
)

// The dag-sessions workload: one job is one request-scoped session
// carrying a seeded DAG of about a microsecond per task body, so the
// runtime's submit, wiring, scheduling, release, renaming and session
// recycle dominate. Every job is checked against a sequential replay.
const (
	dagDatums   = 32   // registered per session
	dagChains   = 16   // datums 0..15 carry RAW chains; 16..31 are renameable WAR cells
	dagTasks    = 1536 // tasks per job
	dagBatchLen = 128  // tasks of the job's one Batch segment
	dagPlans    = 8    // distinct seeded DAGs the jobs cycle through
	bodyRounds  = 160  // mixing rounds per body: about 1 µs on a 2-CPU host
	dagSetups   = 21   // timed before the window and again after it; one takes a few ms
	dagWarm     = 10   // the first set-ups of a process run up to twice as slow
	// Every dagDetailEvery-th traced job gives per-task samples (submit,
	// scheduling wait, release), which bounds them to a few hundred
	// thousand in a 25 s run.
	dagDetailEvery = 8
)

type dagKind uint8

const (
	kIndep dagKind = iota // no dependences
	kChain                // InOut on a chain datum: a RAW link
	kRead                 // In on a WAR cell
	kWrite                // Out on a WAR cell, after its readers
)

type dagTask struct {
	kind  dagKind
	datum uint8
	pred  int32 // the task whose write this one reads (-1: none)
}

// dagPlan is one seeded DAG and the results a sequential replay of it
// produces.
type dagPlan struct {
	salt             uint64
	tasks            []dagTask
	batchLo, batchHi int
	want             [dagDatums]uint64
	wantOut          []uint64
}

// work is a task body's computation.
func work(x uint64) uint64 {
	for i := 0; i < bodyRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x *= 0x9E3779B97F4A7C15
	}
	return x
}

func newDAGPlan(seed int64, idx int) *dagPlan {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(idx)))
	p := &dagPlan{salt: rng.Uint64()}
	var last [dagDatums]int32
	for i := range last {
		last[i] = -1
	}
	add := func(t dagTask) { p.tasks = append(p.tasks, t) }
	for len(p.tasks) < dagTasks {
		switch r := rng.Intn(10); {
		case r < 3: // a run of independent tasks
			for k := 1 + rng.Intn(8); k > 0; k-- {
				add(dagTask{kind: kIndep, pred: -1})
			}
		case r < 6: // a RAW chain on one datum
			d := rng.Intn(dagChains)
			for k := 2 + rng.Intn(11); k > 0; k-- {
				add(dagTask{kind: kChain, datum: uint8(d), pred: last[d]})
				last[d] = int32(len(p.tasks) - 1)
			}
		default: // many readers, then one writer
			d := dagChains + rng.Intn(dagDatums-dagChains)
			for k := 2 + rng.Intn(7); k > 0; k-- {
				add(dagTask{kind: kRead, datum: uint8(d), pred: last[d]})
			}
			add(dagTask{kind: kWrite, datum: uint8(d), pred: -1})
			last[d] = int32(len(p.tasks) - 1)
		}
	}
	p.tasks = p.tasks[:dagTasks]
	p.batchLo = rng.Intn(dagTasks - dagBatchLen)
	p.batchHi = p.batchLo + dagBatchLen

	p.want = p.initial()
	p.wantOut = make([]uint64, dagTasks)
	for i, t := range p.tasks {
		x := uint64(i)
		switch t.kind {
		case kIndep:
			p.wantOut[i] = work(p.salt ^ x)
		case kChain:
			p.want[t.datum] = work(p.want[t.datum] ^ x)
		case kRead:
			p.wantOut[i] = work(p.want[t.datum] ^ x)
		case kWrite:
			p.want[t.datum] = work(p.salt + x)
		}
	}
	return p
}

func (p *dagPlan) initial() (v [dagDatums]uint64) {
	for d := range v {
		v[d] = p.salt ^ uint64(d)*0x100000001B3
	}
	return v
}

// cell is one datum's storage, padded to its own cache line.
type cell struct {
	v uint64
	_ [56]byte
}

func newCell() any          { return new(cell) }
func copyCell(dst, src any) { dst.(*cell).v = src.(*cell).v }

// dagRun executes one plan. Its bodies are built once, so a job allocates
// nothing on the benchmark's side and allocs_per_task is the runtime's.
type dagRun struct {
	plan   *dagPlan
	cells  [dagDatums]cell
	out    []uint64
	ds     [dagDatums]*ompss.Datum
	bodies []func(*ompss.TC)

	// Traced jobs only: per-task stamps in tracer time and span ids.
	tr                  *tracer
	start, end, subExit []int64
	subSpan             []int32
}

func newDAGRun(p *dagPlan) *dagRun {
	r := &dagRun{
		plan: p, out: make([]uint64, dagTasks), bodies: make([]func(*ompss.TC), dagTasks),
		start: make([]int64, dagTasks), end: make([]int64, dagTasks),
		subExit: make([]int64, dagTasks), subSpan: make([]int32, dagTasks),
	}
	for i := range r.bodies {
		i := i
		r.bodies[i] = func(tc *ompss.TC) { r.exec(i, tc) }
	}
	return r
}

func (r *dagRun) exec(i int, tc *ompss.TC) {
	var t0 int64
	if r.tr != nil {
		t0 = r.tr.now()
	}
	t, x := r.plan.tasks[i], uint64(i)
	switch t.kind {
	case kIndep:
		r.out[i] = work(r.plan.salt ^ x)
	case kChain:
		c := &r.cells[t.datum]
		c.v = work(c.v ^ x)
	case kRead:
		r.out[i] = work(tc.Data(r.ds[t.datum]).(*cell).v ^ x)
	case kWrite:
		tc.Data(r.ds[t.datum]).(*cell).v = work(r.plan.salt + x)
	}
	if r.tr != nil {
		r.start[i], r.end[i] = t0, r.tr.now()
	}
}

func (r *dagRun) clause(i int) ompss.Clause {
	t := r.plan.tasks[i]
	switch t.kind {
	case kChain:
		return r.ds[t.datum].AsInOut()
	case kRead:
		return r.ds[t.datum].AsIn()
	case kWrite:
		return r.ds[t.datum].AsOut()
	}
	return nil
}

// submit and batch add task i to a session or a batch. They call Task
// directly: through a func value, the clause slice would escape and cost
// the benchmark an allocation per task.
func (r *dagRun) submit(s *ompss.Session, i int) {
	if c := r.clause(i); c != nil {
		s.Task(r.bodies[i], c)
	} else {
		s.Task(r.bodies[i])
	}
}

func (r *dagRun) batch(b *ompss.Batch, i int) {
	if c := r.clause(i); c != nil {
		b.Task(r.bodies[i], c)
	} else {
		b.Task(r.bodies[i])
	}
}

// dagStats collects the traced phase's per-layer samples, in ns.
type dagStats struct {
	open, taskwait, close []float64 // every traced job
	submit, wait, release []float64 // every dagDetailEvery-th traced job
	busyNS                int64
}

// dagSpansPerJob bounds the spans one traced job records.
const dagSpansPerJob = 2*dagTasks + 8

// job runs the plan once in a fresh session and verifies the outcome. A
// traced job (tr non-nil) stamps every submit and body; it also records
// them as spans while the tracer has room for the whole job.
func (r *dagRun) job(rt *ompss.Runtime, id int32, tr *tracer, st *dagStats) error {
	p := r.plan
	init := p.initial()
	for d := range r.cells {
		r.cells[d].v = init[d]
	}
	clear(r.out)
	r.tr = tr
	// Traced jobs have odd ids.
	detail := tr != nil && (id/2)%dagDetailEvery == 0
	rec := tr
	if tr != nil && tr.room() < dagSpansPerJob {
		rec = nil
	}

	root := rec.begin("bench.job", id, -1)
	sp := rec.begin("ompss.session_open", id, root)
	t0 := time.Now()
	s := rt.NewSession(ompss.WithRenaming(true))
	for d := range r.ds {
		r.ds[d] = s.Register(&r.cells[d])
		if d >= dagChains {
			r.ds[d].EnableRenaming(nil, newCell, copyCell)
		}
	}
	opened := time.Since(t0)
	rec.end(sp)
	for i := 0; i < dagTasks; {
		if i == p.batchLo {
			b := s.Batch()
			for k := p.batchLo; k < p.batchHi; k++ {
				r.batch(b, k)
			}
			if tr == nil {
				b.Submit()
			} else {
				a := tr.now()
				b.Submit()
				e := tr.now()
				sp := rec.add("ompss.batch_submit", id, root, a, e)
				for k := p.batchLo; k < p.batchHi; k++ {
					r.subExit[k], r.subSpan[k] = e, sp
				}
			}
			i = p.batchHi
			continue
		}
		if tr == nil {
			r.submit(s, i)
		} else {
			a := tr.now()
			r.submit(s, i)
			e := tr.now()
			if detail {
				st.submit = append(st.submit, float64(e-a))
			}
			r.subExit[i], r.subSpan[i] = e, rec.add("ompss.submit", id, root, a, e)
		}
		i++
	}
	sp = rec.begin("ompss.taskwait", id, root)
	t1 := time.Now()
	werr := s.TaskwaitCtx(context.Background())
	t2 := time.Now()
	rec.end(sp)
	sp = rec.begin("ompss.session_close", id, root)
	cerr := s.Close()
	closed := time.Since(t2)
	rec.end(sp)
	rec.end(root)
	if tr != nil {
		st.open = append(st.open, float64(opened))
		st.taskwait = append(st.taskwait, float64(t2.Sub(t1)))
		st.close = append(st.close, float64(closed))
		r.stamp(id, rec, st, detail)
	}

	switch {
	case werr != nil:
		return fmt.Errorf("dag job %d: taskwait: %v", id, werr)
	case cerr != nil:
		return fmt.Errorf("dag job %d: close: %v", id, cerr)
	}
	for d := range r.cells {
		if r.cells[d].v != p.want[d] {
			return fmt.Errorf("dag job %d: datum %d = %#x, sequential replay %#x", id, d, r.cells[d].v, p.want[d])
		}
	}
	for i, v := range r.out {
		if v != p.wantOut[i] {
			return fmt.Errorf("dag job %d: task %d output %#x, sequential replay %#x", id, i, v, p.wantOut[i])
		}
	}
	return nil
}

// stamp turns a traced job's body stamps into spans and samples:
// scheduling wait of tasks that were ready at submit (no dependences) and
// release latency of tasks whose one predecessor was still running when
// they were submitted. The samples are kept only when detail is set.
func (r *dagRun) stamp(id int32, rec *tracer, st *dagStats, detail bool) {
	for i, t := range r.plan.tasks {
		rec.add("kernel.body", id, r.subSpan[i], r.start[i], r.end[i])
		st.busyNS += r.end[i] - r.start[i]
		switch {
		case !detail:
		case t.kind == kIndep:
			st.wait = append(st.wait, float64(max(r.start[i]-r.subExit[i], 0)))
		case t.pred >= 0 && r.subExit[i] < r.end[t.pred]:
			st.release = append(st.release, float64(r.start[i]-r.end[t.pred]))
		}
	}
}

func runDAG(cfg runConfig) (*result, error) {
	res := &result{}
	// The plans and their sequential replays are the benchmark's own work
	// and stay outside the timed set-up.
	runs := make([]*dagRun, dagPlans)
	for k := range runs {
		runs[k] = newDAGRun(newDAGPlan(cfg.seed, k))
	}
	// The set-up is the runtime's start and its first job, which runs on
	// cold session pools. The start alone takes tens of microseconds, too
	// little to time steadily. Set-ups cycle through the plans, as jobs do.
	setups := 0
	start := func() (*ompss.Runtime, error) {
		rt := ompss.New(ompss.Workers(cfg.workers))
		res.attempted++
		setups++
		if err := runs[setups%dagPlans].job(rt, -1, nil, nil); err != nil {
			res.fail(cfg.log, "first job: %v", err)
		}
		return rt, nil
	}
	stop := func(rt *ompss.Runtime) { rt.Shutdown() }
	rt, _ := timeSetup(res, dagWarm, dagSetups, start, stop)

	st := &dagStats{}
	if cfg.traced {
		// Room for every per-task sample, so that recording them adds no
		// allocations to the window's allocs_per_task and bytes_per_task.
		const samples = 1 << 20
		st.submit = make([]float64, 0, samples)
		st.wait = make([]float64, 0, samples)
		st.release = make([]float64, 0, samples)
	}
	for k, r := range runs { // warm the session pools
		res.attempted++
		if err := r.job(rt, int32(-1-k), nil, st); err != nil {
			res.fail(cfg.log, "%v", err)
		}
	}
	if cfg.traced {
		res.tr = newTracer(1 << 18)
	}
	var (
		win   engineWindow
		mem0  runtime.MemStats
		layer = map[string]float64{}
	)
	phases(cfg, res, func(begin bool) {
		if begin {
			runtime.ReadMemStats(&mem0)
			win.begin(rt)
			return
		}
		win.end(res.completed, layer)
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		tasksRun := float64(res.completed * dagTasks)
		layer["ompss.allocs_per_task"] = ratio(float64(mem1.Mallocs-mem0.Mallocs), tasksRun)
		layer["ompss.bytes_per_task"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), tasksRun)
	}, func(i int, tr *tracer) error {
		return runs[i%dagPlans].job(rt, int32(i), tr, st)
	})
	rt.Shutdown()
	if !cfg.traced {
		// A set-up this short sees the host's speed at one moment, and
		// that drifts by tens of percent over seconds: the set-ups after
		// the window give setup_s a second moment.
		rt, _ = timeSetup(res, 1, dagSetups, start, stop)
		rt.Shutdown()
		return res, nil
	}
	submit, wait, release := summarize(st.submit), summarize(st.wait), summarize(st.release)
	layer["ompss.session_open_us"] = median(st.open) / 1e3
	layer["ompss.submit_ns_p50"] = submit.p50
	layer["ompss.submit_ns_tail"] = submit.tail
	layer["ompss.taskwait_us_p50"] = median(st.taskwait) / 1e3
	layer["ompss.session_close_us_p50"] = median(st.close) / 1e3
	layer["core.sched_wait_ns_p50"] = wait.p50
	layer["core.sched_wait_ns_tail"] = wait.tail
	layer["core.release_ns_p50"] = release.p50
	layer["core.release_ns_tail"] = release.tail
	var tracedMS float64
	for _, v := range res.jobsMS {
		tracedMS += v
	}
	layer["core.busy_share"] = ratio(float64(st.busyNS)/1e6, tracedMS*float64(cfg.workers))
	res.layer = layer
	return res, nil
}
