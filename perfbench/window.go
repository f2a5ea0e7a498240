package main

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// bench is one set-up workload.
type bench interface {
	// window runs the workload's closed loop for about d, then checks
	// every result it got. A non-nil tracer makes it a traced window:
	// it times the layers the loop crosses and records them in
	// window.layer.
	window(d time.Duration, tr *tracer) *window
	// refOps returns the fixed, seed-determined ops the traced run
	// replays in-process to measure the simulator's layers.
	refOps() []*op
	close() error
}

// newBench sets the workload named in c up; repeat numbers the set-ups
// of one run, so each gets its own working directory.
func newBench(c cfg, repeat int) (bench, error) {
	switch c.workload {
	case "sim-long":
		return newSimLong(c)
	case "rssd-mixed":
		return newRSSDMixed(c, repeat)
	case "jobs-grid":
		return newJobsGrid(c, repeat)
	}
	return nil, fmt.Errorf("unknown workload %q", c.workload)
}

// window is what one measured window did.
type window struct {
	start   time.Time
	ended   time.Time
	elapsed time.Duration
	alloc0  uint64
	alloc   uint64 // bytes allocated in the process during the window
	cpu0    time.Duration
	cpu     time.Duration // process CPU time (user + system) in the window

	ops     int      // simulations, requests or points attempted
	failed  int      // of which failed, were refused or mismatched
	errors  []string // the first few failure messages
	marks   []mark   // completed units of work
	latName string   // what a latency sample times

	aliases map[string]string  // workload-specific name -> end-to-end metric
	named   map[string]float64 // values under workload-specific names, for the info line
	layer   map[string]float64 // per-layer metrics a traced window measured
	count   map[string]int     // sample counts
}

func newWindow(latName string) *window {
	return &window{latName: latName, aliases: map[string]string{}, named: map[string]float64{},
		layer: map[string]float64{}, count: map[string]int{}}
}

// begin starts the measured interval after a collection, so each
// window starts from a comparable heap.
func (w *window) begin() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.alloc0 = ms.TotalAlloc
	w.cpu0 = processCPU()
	w.start = time.Now()
}

// end closes the measured interval; checking happens after it.
func (w *window) end() {
	w.ended = time.Now()
	w.elapsed = w.ended.Sub(w.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.alloc = ms.TotalAlloc - w.alloc0
	w.cpu = processCPU() - w.cpu0
}

func (w *window) fail(err error) {
	w.failed++
	if len(w.errors) < maxNotedErrors {
		w.errors = append(w.errors, err.Error())
	}
}

// mark is one completed unit of work: a round of simulations, a
// request or a job.
type mark struct {
	at      time.Duration // completion time, from the window's start
	ops     int
	retired int64         // simulated instructions retired by its checked results
	lat     time.Duration // its latency; 0 when it is not a latency sample
}

func (w *window) done(at time.Duration, ops int, retired int64, lat time.Duration) {
	w.marks = append(w.marks, mark{at, ops, retired, lat})
}

// slice is a stretch of a window between two completions.
type slice struct {
	dur     time.Duration
	ops     int
	retired int64
	lat     []time.Duration
}

func (s slice) opsPerSec() float64 { return float64(s.ops) / s.dur.Seconds() }

// sliceMin is the shortest slice of a window.
const sliceMin = time.Second

// fastSlices cuts the window into consecutive slices of at least
// sliceMin and returns the faster half by ops per second. Other tenants
// of the host only ever slow a slice down (stolen CPU, shared caches),
// so the faster slices show the program's own speed; a change to the
// program moves every slice. A window too short for one slice is one
// slice.
func (w *window) fastSlices() []slice {
	ms := slices.Clone(w.marks)
	slices.SortFunc(ms, func(a, b mark) int { return cmp.Compare(a.at, b.at) })
	var out []slice
	var cur slice
	var from time.Duration
	for _, m := range ms {
		cur.ops += m.ops
		cur.retired += m.retired
		if m.lat > 0 {
			cur.lat = append(cur.lat, m.lat)
		}
		if m.at-from >= sliceMin {
			cur.dur = m.at - from
			out = append(out, cur)
			cur, from = slice{}, m.at
		}
	}
	if len(out) == 0 {
		cur.dur = w.elapsed
		return []slice{cur}
	}
	slices.SortStableFunc(out, func(a, b slice) int { return cmp.Compare(b.opsPerSec(), a.opsPerSec()) })
	return out[:(len(out)+1)/2]
}

// rates returns the median ops and retired instructions per second over
// the fast slices, and their latency samples in milliseconds.
func (w *window) rates() (opsPerSec, retiredPerSec float64, lat []float64) {
	var opsR, retR []float64
	for _, s := range w.fastSlices() {
		opsR = append(opsR, s.opsPerSec())
		retR = append(retR, float64(s.retired)/s.dur.Seconds())
		lat = append(lat, durationsMs(s.lat)...)
	}
	return median(opsR), median(retR), lat
}

func (w *window) samples() map[string]int {
	out := map[string]int{"ops": w.ops}
	for _, m := range w.marks {
		if m.lat > 0 {
			out[w.latName]++
		}
	}
	for k, v := range w.count {
		out[k] = v
	}
	return out
}

// endToEnd fills the end-to-end metrics except setup_s.
func (w *window) endToEnd(m map[string]float64) {
	ops, retired, lat := w.rates()
	m["sim_minstr_per_s"] = retired / 1e6
	m["ops_per_s"] = ops
	m["lat_p50_ms"] = quantile(lat, 0.50)
	m["lat_p90_ms"] = quantile(lat, 0.90)
	m["alloc_kb_per_op"] = float64(w.alloc) / 1024 / float64(max(w.ops, 1))
	m["peak_rss_mb"] = peakRSSMiB()
	for alias, name := range w.aliases {
		w.named[alias] = m[name]
	}
	w.named["window_ops_per_s"] = float64(w.ops) / w.elapsed.Seconds()
	w.named["cpu_busy"] = w.cpu.Seconds() / w.elapsed.Seconds()
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
