package netcons_test

// TestFastRouteFingerprints pins EngineFast to a committed table of run
// fingerprints. The fast engine promises bit-identical runs for a fixed
// (protocol, n, seed, topology), fresh or through a reused workspace,
// so a change to its PairIndex maintenance or to a detector's Stable
// predicate must reproduce every row exactly: a refresh landing in a
// different order moves a swap-remove and so every later Sample draw,
// and a detector verdict flipping at any step moves the convergence
// clock. The protocols cover two-sided, one-sided and edge-only
// transitions (One-Way-Epidemic's rules change only one node, in
// either orientation), on the complete graph and under a restricted
// topology.
//
// Regenerate the table only for a deliberate change of the fast
// engine's draw stream:
//
//	go test . -run TestFastRouteFingerprints -update-fast
//
// CI greps this test's subtests in the batch contract step; keep the
// naming scheme in sync with .github/workflows/ci.yml.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/processes"
	"repro/internal/protocols"
)

var updateFast = flag.Bool("update-fast", false, "rewrite testdata/fast_fingerprints.json from EngineFast")

const fastFingerprintFile = "testdata/fast_fingerprints.json"

func fastFingerprintCases(t *testing.T) []fingerprintCase {
	t.Helper()
	type subject struct {
		name    string
		proto   *core.Protocol
		det     core.Detector
		n       int
		initial func(n int) (*core.Config, error)
	}
	var subjects []subject
	for _, name := range []string{"3-cliques", "4-cliques", "2rc", "3rc", "global-ring", "simple-global-line", "cycle-cover"} {
		cons, err := protocols.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{name: name, proto: cons.Proto, det: cons.Detector, n: 12})
	}
	epi := processes.OneWayEpidemic()
	subjects = append(subjects, subject{name: "one-way-epidemic", proto: epi.Proto, det: epi.Detector, n: 16,
		initial: func(n int) (*core.Config, error) { return processes.InitialWithOneA(epi.Proto, n) }})

	var cases []fingerprintCase
	seed := uint64(100)
	for _, topology := range []string{"", "gnp@0.5"} {
		label := "complete"
		if topology != "" {
			label = topology
		}
		for _, s := range subjects {
			for _, n := range []int{s.n, s.n + 1} {
				seed++
				c := fingerprintCase{
					name: fmt.Sprintf("%s/%s/n=%d", s.name, label, n), proto: s.proto, det: s.det,
					n: n, seed: seed, maxSteps: 300_000, topology: topology,
				}
				if s.initial != nil {
					build, n := s.initial, n
					c.initial = func() (*core.Config, error) { return build(n) }
				}
				cases = append(cases, c)
			}
		}
	}
	return cases
}

func TestFastRouteFingerprints(t *testing.T) {
	cases := fastFingerprintCases(t)
	if *updateFast {
		rows := make([]fingerprintRow, len(cases))
		for i, c := range cases {
			rows[i] = fingerprintOf(c.name, fingerprintRun(t, c, core.EngineFast, nil))
		}
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fastFingerprintFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), fastFingerprintFile)
		return
	}

	data, err := os.ReadFile(fastFingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	var rows []fingerprintRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]fingerprintRow, len(rows))
	for _, r := range rows {
		want[r.Case] = r
	}
	if len(want) != len(cases) {
		t.Fatalf("%s holds %d rows, the test defines %d cases", fastFingerprintFile, len(want), len(cases))
	}

	// One workspace reused by every case in table order, so snapshot
	// restores and index resets across protocols, populations and
	// topologies are covered too.
	ws := core.NewWorkspace()
	for _, c := range cases {
		row, ok := want[c.name]
		if !ok {
			t.Fatalf("case %s has no committed row", c.name)
		}
		for _, mode := range []string{"fresh", "workspace"} {
			var w *core.Workspace
			if mode == "workspace" {
				w = ws
			}
			t.Run(c.name+"/engine=fast/"+mode, func(t *testing.T) {
				if got := fingerprintOf(c.name, fingerprintRun(t, c, core.EngineFast, w)); got != row {
					t.Fatalf("fingerprint diverged from the committed table:\ngot  %+v\nwant %+v", got, row)
				}
			})
		}
	}
}
