package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's resource counters.
// Differences between two readings attribute allocation, GC CPU and busy
// cores to the interval between them.
type usage struct {
	at      time.Time
	alloc   uint64  // cumulative heap bytes allocated
	gcCPU   float64 // runtime estimate of GC CPU seconds
	usedCPU float64 // runtime estimate of non-idle CPU seconds
	procCPU float64 // user+system CPU seconds from getrusage
}

var usageNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(usageNames))
	for i, n := range usageNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := usage{at: time.Now(), alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64()}
	u.usedCPU = s[2].Value.Float64() - s[3].Value.Float64()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.procCPU = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return u
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// delta is the resource use between two readings.
type delta struct {
	Wall    float64 `json:"wall_s"`
	AllocMB float64 `json:"alloc_mb"`
	GCCPU   float64 `json:"gc_cpu_s"`
	UsedCPU float64 `json:"used_cpu_s"`
	ProcCPU float64 `json:"proc_cpu_s"`
}

// since is the resource use from a until now.
func since(a usage) delta { return diff(a, readUsage()) }

func diff(a, b usage) delta {
	return delta{
		Wall:    b.at.Sub(a.at).Seconds(),
		AllocMB: float64(b.alloc-a.alloc) / (1 << 20),
		GCCPU:   b.gcCPU - a.gcCPU,
		UsedCPU: b.usedCPU - a.usedCPU,
		ProcCPU: b.procCPU - a.procCPU,
	}
}

// heapPeak samples /gc/heap/live:bytes (the heap the last GC found live)
// until stopped. It keeps the maximum and one reading per completed GC
// cycle.
type heapPeak struct {
	stop   chan struct{}
	done   chan struct{}
	max    uint64
	cycles []uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		metrics.Read(s)
		last := s[1].Value.Uint64()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			if v > h.max {
				h.max = v
			}
			if c := s[1].Value.Uint64(); c != last {
				last = c
				h.cycles = append(h.cycles, v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.max) / (1 << 20)
}

// cycleQuantile returns, in MiB, the nearest-rank q-quantile of the live
// heap over the GC cycles seen, or the peak if no cycle completed. Call it
// after finish.
func (h *heapPeak) cycleQuantile(q float64) float64 {
	if len(h.cycles) == 0 {
		return float64(h.max) / (1 << 20)
	}
	v := make([]float64, len(h.cycles))
	for i, c := range h.cycles {
		v[i] = float64(c) / (1 << 20)
	}
	return percentile(v, q).Value
}

// span is one traced interval. Pass is the measured pass it belongs to
// (0, 1, ...) or, negative, the set-up round (-1, -2, ...); layer metrics
// prefer measured spans.
type span struct {
	Run    string  `json:"run"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Pass   int     `json:"pass"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Use    delta   `json:"use"`

	u0 usage // reading at begin
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory for the whole run and writes them out at
// the end. A disabled recorder only runs the wrapped calls. Spans nest by
// a stack, so it is used from the benchmark's main goroutine only: every
// layer call it wraps is made from there (the sim's hooks run on the
// goroutine that called sim.RunOpts).
type recorder struct {
	on    bool
	runID string
	t0    time.Time

	spans []span
	stack []int
	pass  int
	// cost is the time spent inside the recorder itself, the direct
	// measure of tracing overhead.
	cost time.Duration
}

func newRecorder(on bool, runID string) *recorder {
	return &recorder{on: on, runID: runID, t0: time.Now(), pass: -1}
}

// setPass tags the spans that follow with a measured pass index, or with
// -(k+1) for set-up round k.
func (r *recorder) setPass(p int) {
	r.pass = p
}

// begin opens a span under the innermost open one and returns its ID, or
// -1 when tracing is off.
func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	t := time.Now()
	u := readUsage()
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{
		Run: r.runID, ID: id, Parent: parent, Name: name, Pass: r.pass,
		Start: u.at.Sub(r.t0).Seconds(), u0: u,
	})
	r.stack = append(r.stack, id)
	r.cost += time.Since(t)
	return id
}

// end closes span id (which must be the innermost open span).
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	t := time.Now()
	u := readUsage()
	s := &r.spans[id]
	s.End = u.at.Sub(r.t0).Seconds()
	s.Use = diff(s.u0, u)
	r.stack = r.stack[:len(r.stack)-1]
	r.cost += time.Since(t)
}

// do runs fn inside a span named name.
func (r *recorder) do(name string, fn func() error) error {
	id := r.begin(name)
	defer r.end(id)
	return fn()
}

// layerStat aggregates the spans of one name: the per-pass median of
// total and self time (self = duration minus the part covered by child
// spans) and allocation, and CPU shares as ratios of sums.
type layerStat struct {
	Total, Self, AllocMB float64
	GCFrac, BusyCores    float64
}

func (r *recorder) layer(name string) layerStat {
	child := map[int]float64{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	pick := func(measured bool) []span {
		var out []span
		for _, s := range r.spans {
			if s.Name == name && (s.Pass >= 0) == measured {
				out = append(out, s)
			}
		}
		return out
	}
	spans := pick(true)
	if len(spans) == 0 {
		spans = pick(false)
	}
	if len(spans) == 0 {
		return layerStat{}
	}
	type agg struct{ total, self, alloc float64 }
	byPass := map[int]*agg{}
	var gc, used, cpu, wall float64
	for _, s := range spans {
		a := byPass[s.Pass]
		if a == nil {
			a = &agg{}
			byPass[s.Pass] = a
		}
		a.total += s.dur()
		a.self += s.dur() - child[s.ID]
		a.alloc += s.Use.AllocMB
		gc += s.Use.GCCPU
		used += s.Use.UsedCPU
		cpu += s.Use.ProcCPU
		wall += s.dur()
	}
	keys := make([]int, 0, len(byPass))
	for k := range byPass {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var total, self, alloc []float64
	for _, k := range keys {
		total = append(total, byPass[k].total)
		self = append(self, byPass[k].self)
		alloc = append(alloc, byPass[k].alloc)
	}
	return layerStat{
		Total: median(total), Self: median(self), AllocMB: median(alloc),
		GCFrac: ratio(gc, used), BusyCores: ratio(cpu, wall),
	}
}

// coverage is the share of the run's wall time, from the recorder's start
// to the end of its last span, that layer spans cover: the direct children
// of the set-up rounds and the measured passes.
func (r *recorder) coverage() float64 {
	top := map[int]bool{}
	var wall float64
	for _, s := range r.spans {
		if s.Name == "setup" || s.Name == "pass" {
			top[s.ID] = true
		}
		wall = max(wall, s.End)
	}
	var covered float64
	for _, s := range r.spans {
		if top[s.Parent] {
			covered += s.dur()
		}
	}
	return ratio(covered, wall)
}

// overhead is the recorder's own time as a share of the run's wall time.
func (r *recorder) overhead() float64 {
	return ratio(r.cost.Seconds(), time.Since(r.t0).Seconds())
}

// write dumps every span to path as JSON.
func (r *recorder) write(path string) error {
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
