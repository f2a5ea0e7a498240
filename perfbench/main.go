// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload in a single process for a fixed time, checks every
// result it gets against an in-process reference, and prints every
// end-to-end metric by name and unit as the last line of its output:
//
//	go build -o perfbench . && ./perfbench --workload rssd-mixed --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it prints the per-layer metrics instead, measured from
// outside by timing calls into each layer's public functions. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sim-long, rssd-mixed or jobs-grid")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", runSeconds, "length of the measured window in seconds")
		traced  = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		desc    = flag.Bool("describe", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *desc {
		out, err := describe()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		return
	}
	if !slices.ContainsFunc(workloads, func(w workloadInfo) bool { return w.Name == *name }) {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	dir, err := os.MkdirTemp(workRoot(), "perfbench-")
	if err != nil {
		fatal(err)
	}
	res, err := run(cfg{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *traced == 1,
		dir:      dir,
	})
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	info, _ := json.Marshal(map[string]any{"info": res.info})
	fmt.Println(string(info))
	last, _ := json.Marshal(res.line())
	fmt.Println(string(last))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// workRoot is where run directories go: $PERFBENCH_DIR (set by
// run.sh to the build directory) or .bench_build under the working
// directory, so the benchmark writes only inside its checkout.
func workRoot() string {
	root := os.Getenv("PERFBENCH_DIR")
	if root == "" {
		root = ".bench_build"
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		fatal(err)
	}
	return root
}

// cfg is one benchmark invocation.
type cfg struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	dir      string // working directory, removed afterwards
	// exp, when set, seeds the reference results the run checks
	// against (tests use it to plant a wrong expectation).
	exp *expectations
}

// result is what one invocation measured.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	info              map[string]any
	errors            []string // the first few failure messages
}

func (r *result) line() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for k, v := range r.metrics {
		ms[k] = value{v, unitOf(k)}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms}
}

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median.
const setupRepeats = 5

// run sets the workload up, measures it and, when traced, measures its
// layers.
func run(c cfg) (_ *result, err error) {
	if c.exp == nil {
		c.exp = newExpectations()
	}
	var b bench
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		b, err = newBench(c, i)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", c.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if cerr := b.close(); err == nil {
			err = cerr
		}
	}()

	res := &result{metrics: map[string]float64{}, info: hostInfo(c)}
	d := c.window
	if c.trace {
		// A traced run measures an untraced and a traced window, each
		// half as long, so it takes as long as an untraced run.
		d /= 2
	}
	plain := b.window(d, nil)
	res.add(plain)
	res.info["check_s"] = time.Since(plain.ended).Seconds()
	res.info["setups_s"] = setups
	if !c.trace {
		plain.endToEnd(res.metrics)
		res.metrics["setup_s"] = median(setups)
		res.info["named"] = plain.named
		res.info["samples"] = plain.samples()
	} else {
		var tr tracer
		traced := b.window(d, &tr)
		res.add(traced)
		if traced.ops == 0 || plain.ops == 0 {
			return nil, fmt.Errorf("empty measured window")
		}
		plainOps, _, _ := plain.rates()
		tracedOps, _, _ := traced.rates()
		res.metrics["trace.overhead_pct"] = (plainOps/tracedOps - 1) * 100
		for k, v := range traced.layer {
			res.metrics[k] = v
		}
		if err := layerPass(b, c, res); err != nil {
			return nil, err
		}
		res.info["samples"] = traced.samples()
		moves := map[string]string{}
		for _, m := range perLayer {
			moves[m.Name] = m.moves
		}
		res.info["moves"] = moves
	}
	res.info["error_rate"] = float64(res.failed) / float64(max(res.attempted, 1))
	if len(res.errors) > 0 {
		res.info["failures"] = res.errors
	}
	return res, nil
}

func (r *result) add(w *window) {
	r.attempted += w.ops
	r.failed += w.failed
	r.note(w.errors...)
}

// maxNotedErrors bounds the failure messages a result keeps.
const maxNotedErrors = 8

func (r *result) note(errs ...string) {
	for _, e := range errs {
		if len(r.errors) < maxNotedErrors {
			r.errors = append(r.errors, e)
		}
	}
}

func hostInfo(c cfg) map[string]any {
	host, _ := os.Hostname()
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"trace":      c.trace,
		"window_s":   c.window.Seconds(),
		"host":       host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}
