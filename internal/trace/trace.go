// Package trace records cycle-by-cycle pipeline events from the
// simulator — fetch, dispatch, issue, retire, flush and reconfiguration,
// taken from the machine's event stream (obs.Sink) — and renders them
// as an event log or as a per-instruction pipeline view
// (one row per instruction, one column per cycle), the debugging view
// used to inspect steering behaviour.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/obs"
)

// Kind classifies a pipeline event.
type Kind int

// Event kinds, in pipeline order.
const (
	KindFetch Kind = iota
	KindDispatch
	KindIssue
	KindRetire
	KindFlush
	KindReconfig
)

var kindNames = map[Kind]string{
	KindFetch:    "fetch",
	KindDispatch: "dispatch",
	KindIssue:    "issue",
	KindRetire:   "retire",
	KindFlush:    "flush",
	KindReconfig: "reconfig",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one pipeline occurrence.
type Event struct {
	Cycle int
	Kind  Kind
	// Seq identifies the dynamic instruction (dispatch order); zero for
	// non-instruction events such as reconfigurations.
	Seq uint32
	PC  uint32
	// Latency is the execution latency recorded at issue (including any
	// cache-miss extension), zero otherwise.
	Latency int
	// Text carries the disassembly or event detail.
	Text string
}

// String renders the event as one log line.
func (e Event) String() string {
	switch e.Kind {
	case KindReconfig:
		return fmt.Sprintf("cycle %5d: %-8s %s", e.Cycle, e.Kind, e.Text)
	case KindIssue:
		return fmt.Sprintf("cycle %5d: %-8s #%-5d pc=%-5d lat=%-3d %s",
			e.Cycle, e.Kind, e.Seq, e.PC, e.Latency, e.Text)
	default:
		return fmt.Sprintf("cycle %5d: %-8s #%-5d pc=%-5d %s",
			e.Cycle, e.Kind, e.Seq, e.PC, e.Text)
	}
}

// Buffer is a bounded in-memory recorder of pipeline events and the
// pipeline-trace consumer of a machine's event stream (obs.Sink): once
// the limit is reached the oldest events are dropped.
type Buffer struct {
	obs.Nop

	// LastCycle drops events after this cycle — used to trace just the
	// start of a long run without the ring evicting the early events.
	// NewBuffer leaves it unbounded.
	LastCycle int

	limit  int
	events []Event
	start  int // ring start when full
	full   bool

	cycle int // current cycle, from BeginCycle
	// A cycle's span rewrites coalesce into one reconfig row: rcCycle is
	// the cycle of the newest row, rcSpans its count, and rcAt the
	// recorded-event count right after it was written (so a row is only
	// extended while it is still the newest event).
	rcCycle  int
	rcSpans  int
	rcAt     int
	recorded int
}

// NewBuffer builds a Buffer holding at most limit events (limit must be
// positive).
func NewBuffer(limit int) *Buffer {
	if limit <= 0 {
		panic("trace: buffer limit must be positive")
	}
	return &Buffer{limit: limit, events: make([]Event, 0, limit), LastCycle: math.MaxInt, rcCycle: -1}
}

// Record stores the event, evicting the oldest when full. Events after
// LastCycle are dropped.
func (b *Buffer) Record(e Event) {
	if e.Cycle > b.LastCycle {
		return
	}
	b.recorded++
	if len(b.events) < b.limit {
		b.events = append(b.events, e)
		return
	}
	b.full = true
	b.events[b.start] = e
	b.start = (b.start + 1) % b.limit
}

// Events returns the recorded events, oldest first.
func (b *Buffer) Events() []Event {
	if !b.full {
		out := make([]Event, len(b.events))
		copy(out, b.events)
		return out
	}
	out := make([]Event, 0, b.limit)
	out = append(out, b.events[b.start:]...)
	out = append(out, b.events[:b.start]...)
	return out
}

// Len returns the number of events held.
func (b *Buffer) Len() int { return len(b.events) }

// Dropped reports whether the buffer ever evicted events.
func (b *Buffer) Dropped() bool { return b.full }

// BeginCycle stamps subsequent events with cycle.
func (b *Buffer) BeginCycle(cycle, _ int) { b.cycle = cycle }

// Dispatch records the instruction's fetch (at the cycle it left the
// front end) and its dispatch.
func (b *Buffer) Dispatch(seq uint64, pc uint32, in isa.Inst, fetchCycle int) {
	text := in.String()
	b.Record(Event{Cycle: fetchCycle, Kind: KindFetch, Seq: uint32(seq), PC: pc, Text: text})
	b.Record(Event{Cycle: b.cycle, Kind: KindDispatch, Seq: uint32(seq), PC: pc, Text: text})
}

// Issue records the instruction's issue with its execution latency.
func (b *Buffer) Issue(seq uint64, pc uint32, in isa.Inst, latency int) {
	b.Record(Event{Cycle: b.cycle, Kind: KindIssue, Seq: uint32(seq), PC: pc, Latency: latency, Text: in.String()})
}

// Retire records the instruction committing.
func (b *Buffer) Retire(seq uint64, pc uint32) {
	b.Record(Event{Cycle: b.cycle, Kind: KindRetire, Seq: uint32(seq), PC: pc})
}

// Squash records the instruction being flushed.
func (b *Buffer) Squash(seq uint64, pc uint32, in isa.Inst) {
	b.Record(Event{Cycle: b.cycle, Kind: KindFlush, Seq: uint32(seq), PC: pc, Text: in.String()})
}

// ReconfigStart records a span rewrite as a reconfig row; rewrites the
// configuration manager starts in one cycle share one row, which
// reports their count and the allocation vector after the last.
func (b *Buffer) ReconfigStart(r obs.Reconfig) {
	if b.cycle > b.LastCycle {
		return
	}
	extend := b.rcCycle == b.cycle && b.rcAt == b.recorded
	if extend {
		b.rcSpans++
	} else {
		b.rcSpans = 1
	}
	e := Event{Cycle: b.cycle, Kind: KindReconfig, Text: fmt.Sprintf("%d span(s) -> %v", b.rcSpans, r.Slots)}
	switch {
	case !extend:
		b.Record(e)
		b.rcCycle, b.rcAt = b.cycle, b.recorded
	case b.full:
		b.events[(b.start+b.limit-1)%b.limit] = e
	default:
		b.events[len(b.events)-1] = e
	}
}

// Log renders all events one per line.
func Log(events []Event) string {
	var sb strings.Builder
	for _, e := range events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// instRow collects one dynamic instruction's lifecycle.
type instRow struct {
	seq      uint32
	pc       uint32
	text     string
	fetch    int
	dispatch int
	issue    int
	latency  int
	retire   int
	flushed  int
}

// Pipeview renders the classic pipeline chart: one row per dynamic
// instruction, one column per cycle, with markers
//
//	F fetch   D dispatch   I issue   = executing   R retire   x flushed
//
// Reconfiguration events render as their own rows — marker C at the
// event cycle — interleaved chronologically with the instruction rows,
// so steering activity is visible against the instruction stream.
// Cycles outside [fromCycle, toCycle] are clipped; instructions and
// events entirely outside the range are omitted.
func Pipeview(events []Event, fromCycle, toCycle int) string {
	rows := map[uint32]*instRow{}
	order := []uint32{}
	var reconfigs []Event
	get := func(e Event) *instRow {
		r, ok := rows[e.Seq]
		if !ok {
			r = &instRow{seq: e.Seq, pc: e.PC, fetch: -1, dispatch: -1, issue: -1, retire: -1, flushed: -1}
			rows[e.Seq] = r
			order = append(order, e.Seq)
		}
		return r
	}
	for _, e := range events {
		if e.Kind == KindReconfig {
			if e.Cycle >= fromCycle && e.Cycle <= toCycle {
				reconfigs = append(reconfigs, e)
			}
			continue
		}
		r := get(e)
		if e.Text != "" {
			r.text = e.Text
		}
		switch e.Kind {
		case KindFetch:
			r.fetch = e.Cycle
		case KindDispatch:
			r.dispatch = e.Cycle
		case KindIssue:
			r.issue = e.Cycle
			r.latency = e.Latency
		case KindRetire:
			r.retire = e.Cycle
		case KindFlush:
			r.flushed = e.Cycle
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	sort.SliceStable(reconfigs, func(i, j int) bool { return reconfigs[i].Cycle < reconfigs[j].Cycle })

	width := toCycle - fromCycle + 1
	if width <= 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-5s %-26s %s\n", "seq", "pc", "instruction", "cycles "+fmt.Sprint(fromCycle)+"..")
	emitReconfig := func(e Event) {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		line[e.Cycle-fromCycle] = 'C'
		text := e.Text
		if len(text) > 26 {
			text = text[:26]
		}
		fmt.Fprintf(&sb, "%-6s %-5s %-26s %s\n", "-", "-", text, line)
	}
	nextRC := 0
	for _, seq := range order {
		r := rows[seq]
		last := r.retire
		if r.flushed >= 0 && r.flushed > last {
			last = r.flushed
		}
		if last < fromCycle && last >= 0 {
			continue
		}
		if r.fetch > toCycle && r.fetch >= 0 {
			continue
		}
		// Flush any reconfigurations that happened before this
		// instruction entered the pipeline, so the chart reads in
		// chronological order top to bottom.
		for nextRC < len(reconfigs) && r.fetch >= 0 && reconfigs[nextRC].Cycle < r.fetch {
			emitReconfig(reconfigs[nextRC])
			nextRC++
		}
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		mark := func(cycle int, c byte) {
			if cycle >= fromCycle && cycle <= toCycle {
				line[cycle-fromCycle] = c
			}
		}
		if r.issue >= 0 {
			end := r.issue + r.latency - 1
			for c := r.issue + 1; c <= end; c++ {
				mark(c, '=')
			}
		}
		mark(r.fetch, 'F')
		mark(r.dispatch, 'D')
		mark(r.issue, 'I')
		mark(r.retire, 'R')
		mark(r.flushed, 'x')
		text := r.text
		if len(text) > 26 {
			text = text[:26]
		}
		fmt.Fprintf(&sb, "%-6d %-5d %-26s %s\n", r.seq, r.pc, text, line)
	}
	for ; nextRC < len(reconfigs); nextRC++ {
		emitReconfig(reconfigs[nextRC])
	}
	return sb.String()
}
