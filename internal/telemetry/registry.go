// Package telemetry is the simulator's observability layer: a
// zero-allocation-on-hot-path metrics registry (counters, gauges,
// fixed-bucket histograms), a per-cycle sampler that turns the machine's
// state into a time series, a steering-decision log capturing every
// configuration switch, and exporters for JSON-lines, CSV and
// Prometheus text format.
//
// The design splits cost between two paths:
//
//   - the hot path — one method call per pipeline event, each a plain
//     field increment on a pre-registered metric, no allocation, no
//     locking (a Probe belongs to exactly one machine);
//   - the sampling path — every Interval cycles the Probe reads the
//     machine's obs.State snapshot at EndCycle and merges it with the
//     interval counters into a Sample for the Exporter.
//
// A Probe is one consumer of the machine's event stream (obs.Sink), so
// uninstrumented machines pay one nil-check branch per event and
// nothing else (see BenchmarkTelemetryOverhead).
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Counter is a monotonically increasing metric. Not goroutine-safe: a
// counter belongs to the single goroutine driving its machine (the sweep
// harness builds one registry per worker machine).
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a metric that can go up and down (occupancy, in-flight
// reconfiguration slots, the latest CEM score).
type Gauge struct {
	v int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v = v }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v += delta }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Histogram counts integer observations into fixed buckets chosen at
// registration time. Buckets are cumulative in the export (Prometheus
// `le` semantics); observation is two array writes, no allocation.
type Histogram struct {
	bounds []int64  // upper bounds, ascending; implicit +Inf bucket last
	counts []uint64 // len(bounds)+1
	sum    int64
	n      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// Label is one fixed name="value" pair attached to a metric at
// registration; the simulator uses it for per-unit-type series.
type Label struct {
	Key, Value string
}

// kind tags a registered metric for rendering.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// metric is one registry entry.
type metric struct {
	name   string
	help   string
	labels []Label
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// key returns the uniqueness key (name plus rendered labels).
func (m *metric) key() string { return m.name + renderLabels(m.labels) }

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry holds the registered metrics of one machine. Registration
// happens at setup time and may allocate; after that the registry is
// only read (by exporters) or written through the metric handles.
type Registry struct {
	metrics []*metric
	byKey   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]bool{}}
}

// register adds a metric, panicking on a duplicate (name, labels) pair —
// a duplicate is always a wiring bug.
func (r *Registry) register(m *metric) {
	k := m.key()
	if r.byKey[k] {
		panic(fmt.Sprintf("telemetry: duplicate metric %s", k))
	}
	r.byKey[k] = true
	r.metrics = append(r.metrics, m)
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, labels: labels, kind: kindCounter, c: c})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, labels: labels, kind: kindGauge, g: g})
	return g
}

// NewHistogram registers and returns a histogram with the given
// ascending upper bucket bounds (an implicit +Inf bucket is added).
func (r *Registry) NewHistogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s bounds not ascending", name))
		}
	}
	h := &Histogram{bounds: append([]int64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
	r.register(&metric{name: name, help: help, labels: labels, kind: kindHistogram, h: h})
	return h
}

// CounterValue returns the value of the counter with the given name and
// labels, for tests and report code; ok is false when no such counter
// exists.
func (r *Registry) CounterValue(name string, labels ...Label) (uint64, bool) {
	k := name + renderLabels(labels)
	for _, m := range r.metrics {
		if m.kind == kindCounter && m.key() == k {
			return m.c.Value(), true
		}
	}
	return 0, false
}

// Render writes the registry in Prometheus text exposition format:
// "# HELP"/"# TYPE" headers per metric family (grouped by name, in
// registration order), then one line per series. Histograms render
// cumulative le-buckets plus _sum and _count.
func (r *Registry) Render(w io.Writer) error {
	seenHeader := map[string]bool{}
	// Stable family grouping: emit in registration order but print the
	// header only the first time each family name appears.
	for _, m := range r.metrics {
		if !seenHeader[m.name] {
			seenHeader[m.name] = true
			typ := "counter"
			switch m.kind {
			case kindGauge:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, typ); err != nil {
				return err
			}
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", m.name, renderLabels(m.labels), m.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s%s %d\n", m.name, renderLabels(m.labels), m.g.Value())
		case kindHistogram:
			err = renderHistogram(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// renderHistogram writes one histogram's bucket, sum and count series.
func renderHistogram(w io.Writer, m *metric) error {
	cum := uint64(0)
	for i, bound := range m.h.bounds {
		cum += m.h.counts[i]
		labels := append(append([]Label(nil), m.labels...), Label{"le", fmt.Sprint(bound)})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, renderLabels(labels), cum); err != nil {
			return err
		}
	}
	cum += m.h.counts[len(m.h.bounds)]
	labels := append(append([]Label(nil), m.labels...), Label{"le", "+Inf"})
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, renderLabels(labels), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", m.name, renderLabels(m.labels), m.h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, renderLabels(m.labels), m.h.Count())
	return err
}

// Names returns the distinct metric family names, sorted — a test and
// documentation helper.
func (r *Registry) Names() []string {
	seen := map[string]bool{}
	var names []string
	for _, m := range r.metrics {
		if !seen[m.name] {
			seen[m.name] = true
			names = append(names, m.name)
		}
	}
	sort.Strings(names)
	return names
}
