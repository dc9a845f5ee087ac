package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// span is one interval the benchmark timed at a layer boundary: a job, a
// call into the runtime, the server or the distributed domain, or a task
// body. Times are nanoseconds since the tracer's base; parent indexes the
// span that caused this one (-1 for a job); every span of one job carries
// the job's id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Job    int32  `json:"job"`
}

// layer is the span name up to its first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in a preallocated in-memory buffer and writes them
// out once the run is over. Slots are claimed with one atomic add, so task
// bodies on any worker may record; spans past the capacity are counted
// and dropped. A nil *tracer records nothing, which is how untraced runs
// and untraced phases call the same code.
type tracer struct {
	base    time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

// now is nanoseconds since base (monotonic).
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a finished span and returns its id (-1 when t is nil or the
// buffer is full).
func (t *tracer) add(name string, job, parent int32, start, end int64) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Start: start, End: end, Parent: parent, Job: job}
	return int32(i)
}

// room is how many more spans fit.
func (t *tracer) room() int { return len(t.spans) - int(t.next.Load()) }

// begin opens a span ending at the matching end call.
func (t *tracer) begin(name string, job, parent int32) int32 {
	if t == nil {
		return -1
	}
	return t.add(name, job, parent, t.now(), 0)
}

func (t *tracer) end(id int32) {
	if t != nil && id >= 0 {
		t.spans[id].End = t.now()
	}
}

// recorded returns the spans kept so far.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover. Children's intervals are clipped to
// the parent and merged first, so overlapping children (task bodies on
// two workers) are not subtracted twice. jobs is the number of distinct
// job ids seen.
func selfTimes(spans []span) (perLayer map[string]int64, jobs int) {
	kids := make(map[int32][]int32)
	jobSet := make(map[int32]struct{})
	for i, s := range spans {
		jobSet[s.Job] = struct{}{}
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	perLayer = make(map[string]int64)
	type iv struct{ lo, hi int64 }
	var buf []iv
	for i, s := range spans {
		buf = buf[:0]
		for _, k := range kids[int32(i)] {
			c := spans[k]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				buf = append(buf, iv{lo, hi})
			}
		}
		sort.Slice(buf, func(a, b int) bool { return buf[a].lo < buf[b].lo })
		var covered, curLo, curHi int64
		for j, v := range buf {
			if j == 0 || v.lo > curHi {
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		covered += curHi - curLo
		perLayer[s.layer()] += s.End - s.Start - covered
	}
	return perLayer, len(jobSet)
}

// write stores the kept spans as JSON lines, one span per line, with
// their index as id.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.recorded() {
		if err := enc.Encode(struct {
			ID int `json:"id"`
			span
		}{i, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if d := t.dropped.Load(); d > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans past the buffer were dropped from %s\n", d, path)
	}
	return nil
}

// addSelfTimes adds <layer>.self_ms_per_job for every span layer.
func addSelfTimes(t *tracer, out map[string]float64) {
	per, jobs := selfTimes(t.recorded())
	for _, l := range spanLayers {
		out[l+".self_ms_per_job"] = ratio(float64(per[l])/1e6, float64(jobs))
	}
}
