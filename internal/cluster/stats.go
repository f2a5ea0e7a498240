package cluster

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/cpu"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// Stats aggregates a cluster run: the cluster cycle count, the mode
// history, and each core's full scalar statistics.
type Stats struct {
	Cycles       int         `json:"cycles"`
	Cores        []cpu.Stats `json:"cores"`
	Mode         string      `json:"mode"`
	Arbiter      string      `json:"arbiter"`
	ModeSwitches int         `json:"modeSwitches"`
}

// Stats snapshots the cluster state.
func (c *Machine) Stats() Stats {
	s := Stats{
		Cycles:       c.cycle,
		Mode:         c.mode.String(),
		Arbiter:      c.arb.String(),
		ModeSwitches: c.modeSwitches,
	}
	for _, p := range c.procs {
		s.Cores = append(s.Cores, p.Stats())
	}
	return s
}

// AggregateIPC is the cluster's throughput: total instructions retired
// across every core per cluster cycle.
func (s Stats) AggregateIPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	total := 0
	for _, cs := range s.Cores {
		total += cs.Retired
	}
	return float64(total) / float64(s.Cycles)
}

// Fairness is Jain's index over the per-core IPCs: 1.0 when every core
// progresses at the same rate, approaching 1/K when one core starves
// the rest. Degenerate inputs (no cores, all-zero IPC) report 1.0 —
// nothing is being shared unfairly.
func (s Stats) Fairness() float64 {
	if len(s.Cores) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, cs := range s.Cores {
		ipc := cs.IPC()
		sum += ipc
		sumSq += ipc * ipc
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(s.Cores)) * sumSq)
}

// EnableTelemetry streams per-core telemetry into one shared exporter,
// every record labelled with its core index. format is "jsonl" or
// "csv" ("prom" renders one registry snapshot and cannot merge K
// registries into one stream — enable it per core instead). Call
// before Run.
func (c *Machine) EnableTelemetry(w io.Writer, format string, interval int) error {
	var exp telemetry.Exporter
	switch format {
	case "jsonl":
		exp = telemetry.NewJSONL(w)
	case "csv":
		exp = telemetry.NewCSV(w)
	default:
		return fmt.Errorf("cluster: unsupported telemetry format %q (want jsonl or csv)", format)
	}
	for k, m := range c.cores {
		m.EnableTelemetryExporter(exp, interval).SetCore(k)
	}
	return nil
}

// EnableSpans attaches one span recorder per core, each labelled with
// its core index and closing its trailing epochs when its core halts.
// Export a combined trace afterwards with WriteChromeTrace or the
// recorders' own writers. Call before Run.
func (c *Machine) EnableSpans(cfg repro.SpanConfig) []*span.Recorder {
	out := make([]*span.Recorder, len(c.cores))
	for k, m := range c.cores {
		r := m.EnableSpans(cfg)
		r.SetCore(k)
		c.spans[k] = r
		out[k] = r
	}
	return out
}

// WriteChromeTrace renders every enabled core's span trace into one
// Chrome Trace document, each core under its own process lane.
func (c *Machine) WriteChromeTrace(w io.Writer) error {
	return span.WriteChromeTraceMulti(w, c.spans[:len(c.cores)])
}
