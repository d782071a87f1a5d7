package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden NDJSON files")

// traceRun executes one run with an NDJSON sink attached and returns
// the stream bytes plus the run result.
func traceRun(t *testing.T, p *core.Protocol, n int, opts core.Options) ([]byte, core.Result) {
	t.Helper()
	var buf bytes.Buffer
	sink := NewNDJSON(&buf)
	opts.Events = sink
	res, err := core.Run(p, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestNDJSONReplayRecoversFinalConfig is the stream's acceptance
// criterion: decoding a Simple-Global-Line run's NDJSON trace and
// replaying it over the initial configuration must reproduce the exact
// final configuration — including out-of-band fault writes.
func TestNDJSONReplayRecoversFinalConfig(t *testing.T) {
	t.Parallel()
	c := protocols.SimpleGlobalLine()
	plan, err := scenario.ParsePlan("crash@400,edge@0.002")
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := plan.Prepare(c.Proto)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []core.Engine{core.EngineBaseline, core.EngineSparse, core.EngineBatch} {
		stream, res := traceRun(t, prepared.Proto, 24, core.Options{
			Seed:     6,
			Engine:   eng,
			Detector: core.QuiescenceDetector(),
			Injector: prepared.NewInjection(6),
			MaxSteps: 200_000,
		})
		recs, err := ReadRecords(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if recs[0].Kind != "start" || recs[0].Schema != SchemaVersion {
			t.Fatalf("%s: bad start record %+v", eng, recs[0])
		}
		replayed, err := Replay(core.NewConfig(prepared.Proto, 24), recs)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if replayed.Fingerprint() != res.Final.Fingerprint() {
			t.Fatalf("%s: replayed configuration does not match the run's final configuration", eng)
		}
	}
}

// TestNDJSONByteIdentical pins the determinism the format promises: no
// record carries wall-clock content, so equal runs yield byte-identical
// streams.
func TestNDJSONByteIdentical(t *testing.T) {
	t.Parallel()
	c := protocols.GlobalStar()
	opts := core.Options{Seed: 2, Engine: core.EngineSparse, Detector: c.Detector}
	a, _ := traceRun(t, c.Proto, 16, opts)
	b, _ := traceRun(t, c.Proto, 16, opts)
	if !bytes.Equal(a, b) {
		t.Fatal("equal runs produced different NDJSON streams")
	}
}

// TestNDJSONGoldenSchema compares a small fixed run's stream against a
// checked-in golden file, so any accidental record-shape change fails
// CI. Regenerate deliberately with `go test ./internal/trace -update`
// (and bump SchemaVersion if the change is incompatible).
func TestNDJSONGoldenSchema(t *testing.T) {
	c := protocols.GlobalStar()
	stream, res := traceRun(t, c.Proto, 8, core.Options{Seed: 1, Engine: core.EngineSparse, Detector: c.Detector})
	if !res.Converged {
		t.Fatal("golden run did not converge")
	}
	golden := filepath.Join("testdata", "star_n8_seed1.ndjson")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, stream, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, want) {
		t.Fatalf("NDJSON stream diverged from %s (rerun with -update if the schema change is deliberate)\ngot:\n%s\nwant:\n%s",
			golden, stream, want)
	}
}

// TestReadRecordsRejectsUnknownSchema guards the versioning contract.
func TestReadRecordsRejectsUnknownSchema(t *testing.T) {
	t.Parallel()
	in := `{"schema":99,"kind":"start","protocol":"x","n":2,"seed":1}` + "\n"
	if _, err := ReadRecords(strings.NewReader(in)); err == nil {
		t.Fatal("unknown schema version accepted")
	}
	if _, err := ReadRecords(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}

// TestNDJSONStringEscaping exercises the hand-rolled string encoder on
// names JSON requires escaping for.
func TestNDJSONStringEscaping(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	s := NewNDJSON(&buf)
	s.Event(&core.Event{Kind: core.EventFaultFired, Step: 1, Label: "a\"b\\c\nd\x01e", U: 0, V: -1})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Fault != "a\"b\\c\nd\x01e" {
		t.Fatalf("label round-tripped as %q", recs[0].Fault)
	}
}

// malformedRecords are stream lines Replay must refuse rather than
// apply: a state index past the protocol's state table, a negative
// state index, and a step that joins a node to itself.
var malformedRecords = []string{
	`{"kind":"step","step":1,"u":0,"v":1,"bu":0,"bv":0,"au":200,"av":0}`,
	`{"kind":"fault_node","step":1,"u":0,"bu":0,"au":-1}`,
	`{"kind":"step","step":1,"u":3,"v":3,"bu":0,"bv":0,"au":0,"av":0,"edge":true}`,
}

// TestReplayRejectsMalformed pins Replay's input checks: each malformed
// record decodes, and Replay returns an error naming it instead of
// panicking or writing an impossible configuration.
func TestReplayRejectsMalformed(t *testing.T) {
	t.Parallel()
	start := core.NewConfig(protocols.GlobalStar().Proto, 8)
	for _, line := range malformedRecords {
		recs, err := ReadRecords(strings.NewReader(line + "\n"))
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if _, err := Replay(start, recs); err == nil {
			t.Errorf("%s: replay accepted the record", line)
		} else if !strings.Contains(err.Error(), "record 0") {
			t.Errorf("%s: error %q does not name the record", line, err)
		}
	}
}

// FuzzReplay holds Replay to its contract on arbitrary input: decoding
// and replaying any stream over a small Global-Star start returns a
// configuration or an error, never a panic.
func FuzzReplay(f *testing.F) {
	for _, line := range malformedRecords {
		f.Add(line + "\n")
	}
	if golden, err := os.ReadFile(filepath.Join("testdata", "star_n8_seed1.ndjson")); err == nil {
		f.Add(string(golden))
	}
	start := core.NewConfig(protocols.GlobalStar().Proto, 8)
	f.Fuzz(func(t *testing.T, stream string) {
		recs, err := ReadRecords(strings.NewReader(stream))
		if err != nil {
			return
		}
		Replay(start, recs)
	})
}
