package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
)

// SchemaVersion is the NDJSON stream schema version, written on every
// run's start record. Bump it when a record shape changes
// incompatibly; consumers should reject versions they don't know.
const SchemaVersion = 1

// NDJSON is a core.EventSink that writes one JSON record per line —
// the stream format of `campaign -trace`. The records are deterministic
// in the run parameters (no wall-clock content), so equal runs produce
// byte-identical streams, which is what the golden schema test pins.
//
// Record shapes (fields in written order; schema only on "start"):
//
//	{"schema":1,"kind":"start","protocol":"…","n":…,"seed":…,
//	    "engine":"…","max_steps":…,"states":["…",…]}
//	{"kind":"step","step":…,"u":…,"v":…,"bu":…,"bv":…,"au":…,"av":…}
//	    — plus "edge":bool when the step flipped the edge {u, v}
//	{"kind":"skip","step":…,"count":…}   — count draws starting at step
//	{"kind":"fault","step":…,"fault":"…","u":…,"v":…}   — v −1 when absent
//	{"kind":"fault_node","step":…,"u":…,"bu":…,"au":…}
//	{"kind":"fault_edge","step":…,"u":…,"v":…,"edge":bool}
//	{"kind":"detect","step":…,"stable":bool}
//	{"kind":"end","step":…,"converged":bool,"effective":…,
//	    "edge_changes":…,"convergence_time":…}
//
// Node-state fields (bu/bv/au/av) are state indices into the start
// record's "states" name table. Encoding is hand-rolled appends into a
// reused buffer, so a sink adds no per-event allocation to a run.
//
// Errors are sticky: the first write error stops all further output
// and is reported by Flush (and Err).
type NDJSON struct {
	w   *bufio.Writer
	buf []byte
	err error
}

var _ core.EventSink = (*NDJSON)(nil)

// NewNDJSON returns an NDJSON sink writing to w. Call Flush when the
// run is done.
func NewNDJSON(w io.Writer) *NDJSON {
	return &NDJSON{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
}

// Event implements core.EventSink.
func (s *NDJSON) Event(ev *core.Event) {
	if s.err != nil {
		return
	}
	b := s.buf[:0]
	switch ev.Kind {
	case core.EventRunStart:
		b = append(b, `{"schema":`...)
		b = appendInt(b, SchemaVersion)
		b = append(b, `,"kind":"start","protocol":`...)
		b = appendString(b, ev.Protocol)
		b = append(b, `,"n":`...)
		b = appendInt(b, int64(ev.N))
		b = append(b, `,"seed":`...)
		b = appendUint(b, ev.Seed)
		b = append(b, `,"engine":`...)
		b = appendString(b, ev.Engine.String())
		b = append(b, `,"max_steps":`...)
		b = appendInt(b, ev.MaxSteps)
		b = append(b, `,"states":[`...)
		if ev.Cfg != nil {
			for i, name := range ev.Cfg.Protocol().States() {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendString(b, name)
			}
		}
		b = append(b, ']')
	case core.EventStep:
		b = append(b, `{"kind":"step","step":`...)
		b = appendInt(b, ev.Step)
		b = append(b, `,"u":`...)
		b = appendInt(b, int64(ev.U))
		b = append(b, `,"v":`...)
		b = appendInt(b, int64(ev.V))
		b = append(b, `,"bu":`...)
		b = appendInt(b, int64(ev.BeforeU))
		b = append(b, `,"bv":`...)
		b = appendInt(b, int64(ev.BeforeV))
		b = append(b, `,"au":`...)
		b = appendInt(b, int64(ev.AfterU))
		b = append(b, `,"av":`...)
		b = appendInt(b, int64(ev.AfterV))
		if ev.EdgeChanged {
			b = append(b, `,"edge":`...)
			b = appendBool(b, ev.Edge)
		}
	case core.EventSkip:
		b = append(b, `{"kind":"skip","step":`...)
		b = appendInt(b, ev.Step)
		b = append(b, `,"count":`...)
		b = appendInt(b, ev.Skipped)
	case core.EventFaultFired:
		b = append(b, `{"kind":"fault","step":`...)
		b = appendInt(b, ev.Step)
		b = append(b, `,"fault":`...)
		b = appendString(b, ev.Label)
		b = append(b, `,"u":`...)
		b = appendInt(b, int64(ev.U))
		b = append(b, `,"v":`...)
		b = appendInt(b, int64(ev.V))
	case core.EventFaultNode:
		b = append(b, `{"kind":"fault_node","step":`...)
		b = appendInt(b, ev.Step)
		b = append(b, `,"u":`...)
		b = appendInt(b, int64(ev.U))
		b = append(b, `,"bu":`...)
		b = appendInt(b, int64(ev.BeforeU))
		b = append(b, `,"au":`...)
		b = appendInt(b, int64(ev.AfterU))
	case core.EventFaultEdge:
		b = append(b, `{"kind":"fault_edge","step":`...)
		b = appendInt(b, ev.Step)
		b = append(b, `,"u":`...)
		b = appendInt(b, int64(ev.U))
		b = append(b, `,"v":`...)
		b = appendInt(b, int64(ev.V))
		b = append(b, `,"edge":`...)
		b = appendBool(b, ev.Edge)
	case core.EventDetect:
		b = append(b, `{"kind":"detect","step":`...)
		b = appendInt(b, ev.Step)
		b = append(b, `,"stable":`...)
		b = appendBool(b, ev.Stable)
	case core.EventRunEnd:
		b = append(b, `{"kind":"end","step":`...)
		b = appendInt(b, ev.Step)
		b = append(b, `,"converged":`...)
		b = appendBool(b, ev.Converged)
		b = append(b, `,"effective":`...)
		b = appendInt(b, ev.EffectiveSteps)
		b = append(b, `,"edge_changes":`...)
		b = appendInt(b, ev.EdgeChanges)
		b = append(b, `,"convergence_time":`...)
		b = appendInt(b, ev.ConvergenceTime)
	default:
		s.buf = b
		return // unknown kinds are dropped, not corrupted into the stream
	}
	b = append(b, '}', '\n')
	s.buf = b
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// Flush drains the sink's buffer and returns the first error the sink
// hit, if any.
func (s *NDJSON) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Err returns the sink's sticky error without flushing.
func (s *NDJSON) Err() error { return s.err }

func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		return appendUint(b, uint64(-v))
	}
	return appendUint(b, uint64(v))
}

func appendUint(b []byte, v uint64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// appendString appends s as a JSON string literal. Only the escapes
// JSON requires are applied (quote, backslash, control characters);
// everything else — including multi-byte UTF-8 — passes through
// verbatim, which JSON allows.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		default:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(b, '"')
}

// Record is one decoded NDJSON stream record. Fields that must be
// distinguishable from their zero value when absent (state indices,
// edge states, verdicts) are pointers; everything else decodes to its
// zero value when the record kind doesn't carry it.
type Record struct {
	Schema          int      `json:"schema,omitempty"`
	Kind            string   `json:"kind"`
	Step            int64    `json:"step,omitempty"`
	Protocol        string   `json:"protocol,omitempty"`
	N               int      `json:"n,omitempty"`
	Seed            uint64   `json:"seed,omitempty"`
	Engine          string   `json:"engine,omitempty"`
	MaxSteps        int64    `json:"max_steps,omitempty"`
	States          []string `json:"states,omitempty"`
	U               int      `json:"u,omitempty"`
	V               int      `json:"v,omitempty"`
	BU              *int     `json:"bu,omitempty"`
	BV              *int     `json:"bv,omitempty"`
	AU              *int     `json:"au,omitempty"`
	AV              *int     `json:"av,omitempty"`
	Edge            *bool    `json:"edge,omitempty"`
	Count           int64    `json:"count,omitempty"`
	Fault           string   `json:"fault,omitempty"`
	Stable          *bool    `json:"stable,omitempty"`
	Converged       *bool    `json:"converged,omitempty"`
	Effective       int64    `json:"effective,omitempty"`
	EdgeChanges     int64    `json:"edge_changes,omitempty"`
	ConvergenceTime int64    `json:"convergence_time,omitempty"`
}

// ReadRecords decodes an NDJSON stream (blank lines ignored). It
// rejects streams whose start record carries an unknown schema
// version.
func ReadRecords(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var recs []Record
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if rec.Kind == "start" && rec.Schema != SchemaVersion {
			return nil, fmt.Errorf("trace: line %d: unknown schema version %d (want %d)", line, rec.Schema, SchemaVersion)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return recs, nil
}

// Replay applies a decoded event stream to a copy of the start
// configuration and returns the resulting configuration: step records
// write both endpoint states (and the edge when it flipped), and fault
// records write the out-of-band mutations. Because every
// configuration-changing event is in the stream — skipped draws by
// definition change nothing — the result equals the run's final
// configuration exactly. A stream is outside input, so every node,
// pair and state a record would write is checked first: nodes must lie
// in the population, pairs must join two distinct nodes, and states
// must index the start protocol's state table.
func Replay(start *core.Config, recs []Record) (*core.Config, error) {
	cfg := start.Clone()
	n, q := cfg.N(), len(cfg.Protocol().States())
	node := func(i, u int) error {
		if u < 0 || u >= n {
			return fmt.Errorf("trace: record %d: node %d outside population of %d", i, u, n)
		}
		return nil
	}
	pair := func(i, u, v int) error {
		if err := node(i, u); err != nil {
			return err
		}
		if err := node(i, v); err != nil {
			return err
		}
		if u == v {
			return fmt.Errorf("trace: record %d: pair {%d, %d} joins a node to itself", i, u, v)
		}
		return nil
	}
	state := func(i int, kind, field string, s *int) (core.State, error) {
		if s == nil {
			return 0, fmt.Errorf("trace: record %d: %s without %s", i, kind, field)
		}
		if *s < 0 || *s >= q {
			return 0, fmt.Errorf("trace: record %d: %s state %d outside the protocol's %d states", i, field, *s, q)
		}
		return core.State(*s), nil
	}
	for i, rec := range recs {
		switch rec.Kind {
		case "step":
			au, err := state(i, rec.Kind, "au", rec.AU)
			if err != nil {
				return nil, err
			}
			av, err := state(i, rec.Kind, "av", rec.AV)
			if err != nil {
				return nil, err
			}
			if err := pair(i, rec.U, rec.V); err != nil {
				return nil, err
			}
			cfg.SetNode(rec.U, au)
			cfg.SetNode(rec.V, av)
			if rec.Edge != nil {
				cfg.SetEdge(rec.U, rec.V, *rec.Edge)
			}
		case "fault_node":
			au, err := state(i, rec.Kind, "au", rec.AU)
			if err != nil {
				return nil, err
			}
			if err := node(i, rec.U); err != nil {
				return nil, err
			}
			cfg.SetNode(rec.U, au)
		case "fault_edge":
			if rec.Edge == nil {
				return nil, fmt.Errorf("trace: record %d: fault_edge without edge", i)
			}
			if err := pair(i, rec.U, rec.V); err != nil {
				return nil, err
			}
			cfg.SetEdge(rec.U, rec.V, *rec.Edge)
		}
	}
	return cfg, nil
}
