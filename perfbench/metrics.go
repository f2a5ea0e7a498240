package main

import (
	"encoding/json"
)

// metric describes one number the benchmark prints: its unit, which
// direction is better and, for end-to-end metrics, the share of the
// baseline median by which it may worsen before a change counts as a
// regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// moves names the end-to-end metric a per-layer metric should move
	// when its layer gets faster or slower, and on which workload; traced
	// runs print the map on their info line.
	moves string
}

// workloadInfo names a workload and the one-line reason it exists.
type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadInfo{
	{"sim-long", "in-process cycle loop with no server: 200k-instruction int/FP phase programs, branchy kernels, a K=2 split cluster and a fault run"},
	{"rssd-mixed", "2 closed-loop clients on loopback rssd: 70% cached kernel runs, 15% unique synthetic runs via the assembler, 15% estimates"},
	{"jobs-grid", "sequential durable /v1/jobs grids (policy x latency x seed) over one kernel each: coordinator, fsync store, per-point builds"},
}

// endToEnd lists the metrics every workload prints with --trace 0. Each
// applies to all three workloads; README.md gives its meaning on each.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_minstr_per_s", Unit: "Minstr/s", Better: "higher", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer lists the metrics every workload prints with --trace 1,
// measured from outside by timing calls into each layer's public
// functions.
var perLayer = []metric{
	{Name: "cpu.ns_per_cycle", Unit: "ns", Better: "lower", moves: "sim_minstr_per_s on sim-long; lat_p50_ms on rssd-mixed to a lesser degree"},
	{Name: "cpu.run_allocs_per_kcycle", Unit: "count", Better: "lower", moves: "sim_minstr_per_s on sim-long"},
	{Name: "cpu.build_us", Unit: "us", Better: "lower", moves: "lat_p50_ms, ops_per_s and alloc_kb_per_op on rssd-mixed and jobs-grid; no change on sim-long"},
	{Name: "cpu.build_alloc_kb", Unit: "KiB", Better: "lower", moves: "alloc_kb_per_op on rssd-mixed and jobs-grid"},
	{Name: "cpu.report_us", Unit: "us", Better: "lower", moves: "lat_p50_ms on rssd-mixed"},
	{Name: "core.manage_ns", Unit: "ns", Better: "lower", moves: "sim_minstr_per_s on sim-long"},
	{Name: "core.manage_share", Unit: "ratio", Better: "lower", moves: "sim_minstr_per_s on sim-long"},
	{Name: "core.steer_cache_hit_ratio", Unit: "ratio", Better: "higher", moves: "sim_minstr_per_s on sim-long"},
	{Name: "predict.manage_ns", Unit: "ns", Better: "lower", moves: "sim_minstr_per_s on sim-long"},
	{Name: "predict.confirmed_ratio", Unit: "ratio", Better: "higher", moves: "sim_minstr_per_s on sim-long (simulated IPC)"},
	{Name: "predict.wasted_spans", Unit: "count", Better: "lower", moves: "sim_minstr_per_s on sim-long (simulated IPC)"},
	{Name: "cluster.ns_per_core_cycle", Unit: "ns", Better: "lower", moves: "sim_minstr_per_s on sim-long"},
	{Name: "isa.assemble_us", Unit: "us", Better: "lower", moves: "lat_p50_ms on rssd-mixed (cache-miss requests)"},
	{Name: "queue.estimate_us", Unit: "us", Better: "lower", moves: "ops_per_s on rssd-mixed"},
	{Name: "server.run_rtt_ms", Unit: "ms", Better: "lower", moves: "lat_p50_ms and ops_per_s on rssd-mixed"},
	{Name: "server.sim_ms", Unit: "ms", Better: "lower", moves: "lat_p50_ms on rssd-mixed"},
	{Name: "server.overhead_ms", Unit: "ms", Better: "lower", moves: "lat_p50_ms and ops_per_s on rssd-mixed"},
	{Name: "server.handler_us", Unit: "us", Better: "lower", moves: "lat_p50_ms and ops_per_s on rssd-mixed"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher", moves: "lat_p50_ms on rssd-mixed"},
	{Name: "server.rejected", Unit: "count", Better: "lower", moves: "ops_per_s on rssd-mixed"},
	{Name: "job.store_append_us", Unit: "us", Better: "lower", moves: "ops_per_s on jobs-grid"},
	{Name: "job.overhead_ms_per_point", Unit: "ms", Better: "lower", moves: "ops_per_s on jobs-grid"},
	{Name: "job.requeues", Unit: "count", Better: "lower", moves: "ops_per_s on jobs-grid"},
	{Name: "job.failed_points", Unit: "count", Better: "lower", moves: "ops_per_s on jobs-grid"},
	{Name: "sweep.points_per_s", Unit: "1/s", Better: "higher", moves: "ceiling for ops_per_s on jobs-grid; the gap is the fabric's cost"},
	{Name: "cpu.cycles", Unit: "count", Better: "lower", moves: "exact; changes only with simulated behaviour"},
	{Name: "cpu.retired", Unit: "count", Better: "higher", moves: "exact; fixed by the programs"},
	{Name: "cpu.cycles_frontend", Unit: "count", Better: "lower", moves: "exact; changes only with simulated behaviour"},
	{Name: "cpu.cycles_units", Unit: "count", Better: "lower", moves: "exact; changes only with simulated behaviour"},
	{Name: "cpu.cycles_deps", Unit: "count", Better: "lower", moves: "exact; changes only with simulated behaviour"},
	{Name: "core.reconfigurations", Unit: "count", Better: "lower", moves: "exact; changes only with simulated behaviour"},
	{Name: "rfu.reconfig_cycles", Unit: "count", Better: "lower", moves: "exact; changes only with simulated behaviour"},
	{Name: "rfu.repairs", Unit: "count", Better: "lower", moves: "exact; changes only with simulated behaviour"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", moves: "cost of the timing wrappers on ops_per_s; the traced window against the untraced one"},
}

// runSeconds is the length of one measured window.
const runSeconds = 30

// describe renders BENCHMARK.json from the tables above.
func describe() ([]byte, error) {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadInfo `json:"workloads"`
		EndToEnd   []metric       `json:"end_to_end"`
		PerLayer   []metric       `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// unitOf returns a metric's unit; names are looked up in both tables.
func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
