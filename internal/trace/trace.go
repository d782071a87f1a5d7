// Package trace records execution snapshots for reproducing the
// paper's illustrative figures: configurations at chosen milestones
// rendered as Graphviz DOT (Figs. 1, 2, 4, 7) and phase/event traces
// (Figs. 3, 5, 6, 8).
package trace

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// Snapshot is one recorded configuration.
type Snapshot struct {
	Step   int64
	Labels []string // per-node state names
	Graph  *graph.Graph
}

// DOT renders the snapshot.
func (s Snapshot) DOT(name string) string {
	return s.Graph.DOT(fmt.Sprintf("%s_step%d", name, s.Step), s.Labels)
}

// Recorder is a core.EventSink that keeps snapshots at the requested
// fractions of edge events — e.g. {0, 0.5, 1} reproduces the
// initial / intermediate / stable triptych of Fig. 1. Because the
// total number of edge events is not known in advance, the recorder
// keeps every k-th snapshot, doubling k as needed (a standard
// reservoir-style thinning), and Select picks the nearest snapshot per
// fraction afterwards.
type Recorder struct {
	every     int64
	seen      int64
	snapshots []Snapshot
	limit     int
}

var _ core.EventSink = (*Recorder)(nil)

// NewRecorder returns a Recorder keeping at most limit snapshots
// (minimum 8).
func NewRecorder(limit int) *Recorder {
	if limit < 8 {
		limit = 8
	}
	return &Recorder{every: 1, limit: limit}
}

// Event implements core.EventSink; attach a Recorder through
// Options.Events. Snapshots are keyed on graph changes: effective steps
// that flipped an edge and out-of-band fault edge writes feed the
// thinning reservoir, and the run-end event records the terminal
// configuration. Skip batches and detector verdicts carry no
// configuration change and are ignored.
func (r *Recorder) Event(ev *core.Event) {
	switch ev.Kind {
	case core.EventStep:
		r.observe(ev.Step, ev.EdgeChanged, ev.Cfg)
	case core.EventFaultEdge:
		r.observe(ev.Step, true, ev.Cfg)
	case core.EventRunEnd:
		r.Final(ev.Step, ev.Cfg)
	}
}

// observe feeds one configuration change into the thinning reservoir.
func (r *Recorder) observe(step int64, edgeChanged bool, cfg *core.Config) {
	if !edgeChanged {
		return
	}
	r.seen++
	if r.seen%r.every != 0 {
		return
	}
	r.snapshots = append(r.snapshots, snapshotOf(step, cfg))
	if len(r.snapshots) >= r.limit {
		// Thin by half and double the stride.
		kept := r.snapshots[:0]
		for i, s := range r.snapshots {
			if i%2 == 0 {
				kept = append(kept, s)
			}
		}
		r.snapshots = kept
		r.every *= 2
	}
}

func snapshotOf(step int64, cfg *core.Config) Snapshot {
	labels := make([]string, cfg.N())
	p := cfg.Protocol()
	for u := 0; u < cfg.N(); u++ {
		labels[u] = p.StateName(cfg.Node(u))
	}
	return Snapshot{
		Step:   step,
		Labels: labels,
		Graph:  graph.FromPairs(cfg.N(), cfg.Edge),
	}
}

// Final records the terminal configuration; the run-end event calls it,
// so a Recorder attached as a sink never needs an explicit call.
func (r *Recorder) Final(step int64, cfg *core.Config) {
	r.snapshots = append(r.snapshots, snapshotOf(step, cfg))
}

// Select returns the snapshots nearest to the requested fractions of
// the recorded run (0 = first event, 1 = last).
func (r *Recorder) Select(fractions []float64) []Snapshot {
	if len(r.snapshots) == 0 {
		return nil
	}
	out := make([]Snapshot, 0, len(fractions))
	for _, f := range fractions {
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		idx := int(f * float64(len(r.snapshots)-1))
		out = append(out, r.snapshots[idx])
	}
	return out
}

// Len returns the number of retained snapshots.
func (r *Recorder) Len() int { return len(r.snapshots) }

// EventLog collects printable one-line events (phase transitions, TM
// operations) for the trace-style figures.
type EventLog struct {
	lines []string
}

// Addf appends a formatted event.
func (l *EventLog) Addf(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// String renders the log.
func (l *EventLog) String() string { return strings.Join(l.lines, "\n") }

// Len returns the number of events.
func (l *EventLog) Len() int { return len(l.lines) }
