package netcons_test

// TestExactRouteFingerprints pins the exact-stepping engines to a
// committed table of run fingerprints, generated from EngineSparse.
// The exact routes — EngineSparse, and EngineBatch whenever a sink, a
// fault injector, a restricted topology or a non-batchable protocol
// forces it to step every landing — promise bit-identical runs, so a
// change to their shared census index must reproduce every row of the
// table exactly: step counts, convergence clock, effective and edge
// steps, sampling effort, and the final configuration. Each case runs
// fresh and through one shared workspace that every case reuses in
// turn (so index resets across protocols, populations and topologies
// are covered too).
//
// Regenerate the table only for a deliberate change of the exact
// routes' draw stream:
//
//	go test . -run TestExactRouteFingerprints -update
//
// CI greps this test's subtests in the batch contract step; keep the
// naming scheme in sync with .github/workflows/ci.yml.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/processes"
	"repro/internal/protocols"
	"repro/internal/scenario"
	"repro/internal/universal"
)

var update = flag.Bool("update", false, "rewrite testdata/exact_fingerprints.json from EngineSparse")

const fingerprintFile = "testdata/exact_fingerprints.json"

// fingerprintRow is one committed table row: the bit-identity
// contract's observable fields for one case.
type fingerprintRow struct {
	Case             string `json:"case"`
	Converged        bool   `json:"converged"`
	Steps            int64  `json:"steps"`
	ConvergenceTime  int64  `json:"convergence_time"`
	EffectiveSteps   int64  `json:"effective_steps"`
	EdgeChanges      int64  `json:"edge_changes"`
	Landings         int64  `json:"landings"`
	SampleRejections int64  `json:"sample_rejections"`
	FaultFirings     int64  `json:"fault_firings"`
	Final            string `json:"final_sha256"`
}

func fingerprintOf(name string, res core.Result) fingerprintRow {
	sum := sha256.Sum256([]byte(res.Final.Fingerprint()))
	m := res.Metrics
	return fingerprintRow{
		Case: name, Converged: res.Converged, Steps: res.Steps,
		ConvergenceTime: res.ConvergenceTime, EffectiveSteps: res.EffectiveSteps,
		EdgeChanges: res.EdgeChanges, Landings: m.Landings,
		SampleRejections: m.SampleRejections, FaultFirings: m.FaultFirings,
		Final: hex.EncodeToString(sum[:]),
	}
}

// fingerprintCase is one row's run recipe. The n = 5000 rows carry
// long runs through the index at a population beyond the paper's
// tables.
type fingerprintCase struct {
	name     string
	proto    *core.Protocol
	det      core.Detector
	n        int
	seed     uint64
	maxSteps int64
	topology string // "" is the complete graph
	faults   string // "" is no fault plan
	initial  func() (*core.Config, error)
}

func fingerprintCases(t *testing.T) []fingerprintCase {
	t.Helper()
	sgl := protocols.SimpleGlobalLine()
	cc := protocols.CycleCover()
	star := protocols.GlobalStar()
	udm, udmDet := universal.PartitionUDM()
	repl := protocols.GraphReplication()
	cover := processes.EdgeCover()
	quiet := core.QuiescenceDetector()

	g1 := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}} {
		g1.AddEdge(e[0], e[1])
	}
	const replN = 9

	return append([]fingerprintCase{
		{name: "sgl/complete/n=10", proto: sgl.Proto, det: sgl.Detector, n: 10, seed: 1},
		{name: "sgl/complete/n=40/budget", proto: sgl.Proto, det: sgl.Detector, n: 40, seed: 2, maxSteps: 400_000},
		{name: "sgl/complete/n=5000/budget", proto: sgl.Proto, det: sgl.Detector, n: 5000, seed: 3, maxSteps: 60_000},
		{name: "cycle-cover/complete/n=16", proto: cc.Proto, det: cc.Detector, n: 16, seed: 4},
		{name: "global-star/complete/n=16", proto: star.Proto, det: star.Detector, n: 16, seed: 5},
		{name: "global-star/complete/n=5000/budget", proto: star.Proto, det: star.Detector, n: 5000, seed: 6, maxSteps: 60_000},
		{name: "partition-udm/complete/n=12", proto: udm, det: udmDet, n: 12, seed: 7},
		{name: "sgl/gnp@0.5/n=12", proto: sgl.Proto, det: quiet, n: 12, seed: 8, maxSteps: 200_000, topology: "gnp@0.5"},
		{name: "cycle-cover/rgg@0.5/n=16", proto: cc.Proto, det: quiet, n: 16, seed: 9, topology: "rgg@0.5"},
		{name: "global-star/gnp@0.3/n=20", proto: star.Proto, det: quiet, n: 20, seed: 10, topology: "gnp@0.3"},
		{name: "partition-udm/rgg@0.6/n=12", proto: udm, det: quiet, n: 12, seed: 11, maxSteps: 200_000, topology: "rgg@0.6"},
		{name: "sgl/gnp@0.002/n=5000/budget", proto: sgl.Proto, det: quiet, n: 5000, seed: 12, maxSteps: 2_000_000, topology: "gnp@0.002"},
		{name: "sgl/complete/n=20/faults", proto: sgl.Proto, det: quiet, n: 20, seed: 13, maxSteps: 300_000, faults: "crash@400,edge@900x3,crash@1500"},
		{name: "cycle-cover/complete/n=16/faults", proto: cc.Proto, det: quiet, n: 16, seed: 14, maxSteps: 300_000, faults: "crash@200,edge@500x2"},
		{name: "global-star/rgg@0.5/n=16/faults", proto: star.Proto, det: quiet, n: 16, seed: 15, maxSteps: 300_000, topology: "rgg@0.5", faults: "crash@150,edge@300x2"},
		// Rate-triggered faults draw their firing gaps through
		// RNG.Geometric, the scenario's own stream.
		{name: "sgl/complete/n=20/rate-faults", proto: sgl.Proto, det: quiet, n: 20, seed: 20, maxSteps: 300_000, faults: "reset@0.0005,edge@0.001x2"},
		{name: "sgl/complete/n=5000/faults/budget", proto: sgl.Proto, det: quiet, n: 5000, seed: 16, maxSteps: 60_000, faults: "crash@20000,edge@40000x4"},
		// Edge-Cover saturates its single class with active edges, so
		// its last non-edges are drawn after long runs of rejections.
		{name: "edge-cover/complete/n=24", proto: cover.Proto, det: cover.Detector, n: 24, seed: 18},
		{name: "edge-cover/rgg@0.5/n=20", proto: cover.Proto, det: quiet, n: 20, seed: 19, topology: "rgg@0.5"},
		{name: "graph-replication/initial/n=9", proto: repl.Proto, det: protocols.ReplicationDetector(g1), n: replN, seed: 17,
			initial: func() (*core.Config, error) { return protocols.ReplicationInitial(repl.Proto, g1, replN) }},
	}, paperSweepCases(t)...)
}

// paperSweepCases covers the small-n grid of the paper's tables: the
// Section 5 c-Cliques and c-RC constructors, Global-Ring, and the
// Section 3.3 One-Way-Epidemic, whose rules change only one node in
// either orientation — two-sided, one-sided and edge-only transitions
// on the complete graph and under a restricted topology, at an even
// and an odd population.
func paperSweepCases(t *testing.T) []fingerprintCase {
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
	subjects = append(subjects, subject{name: "one-way-epidemic", proto: epi.Proto, det: epi.Detector, n: 16, initial: epi.Initial})

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

// fingerprintRun executes one case on engine. The batch engine gets an
// event sink only when nothing else already forces its exact route, so
// the topology, injector and non-batchable routes are each exercised
// on their own.
func fingerprintRun(t *testing.T, c fingerprintCase, engine core.Engine, ws *core.Workspace) core.Result {
	t.Helper()
	proto := c.proto
	opts := core.Options{Seed: c.seed, Engine: engine, Detector: c.det, MaxSteps: c.maxSteps, Workspace: ws}
	if c.topology != "" {
		spec, err := core.ParseTopologySpec(c.topology)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := spec.Realize(c.n, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		opts.Topology = topo
	}
	if c.faults != "" {
		plan, err := scenario.ParsePlan(c.faults)
		if err != nil {
			t.Fatal(err)
		}
		prepared, err := plan.Prepare(c.proto)
		if err != nil {
			t.Fatal(err)
		}
		proto = prepared.Proto
		opts.Injector = prepared.NewInjection(c.seed)
	}
	if c.initial != nil {
		initial, err := c.initial()
		if err != nil {
			t.Fatal(err)
		}
		opts.Initial = initial
	}
	if engine == core.EngineBatch && opts.Topology == nil && opts.Injector == nil && proto.Batchable() {
		opts.Events = nopSink{}
	}
	res, err := core.Run(proto, c.n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if engine == core.EngineBatch && (res.Metrics.ExactFallbackLandings != res.Metrics.Landings || res.Metrics.BucketDraws != 0) {
		t.Fatalf("%s: batch run left the exact route: %d of %d landings exact, %d bucket draws",
			c.name, res.Metrics.ExactFallbackLandings, res.Metrics.Landings, res.Metrics.BucketDraws)
	}
	return res
}

// committedFingerprints reads the committed table, keyed by case name.
func committedFingerprints(t *testing.T) map[string]fingerprintRow {
	t.Helper()
	data, err := os.ReadFile(fingerprintFile)
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
	return want
}

type nopSink struct{}

func (nopSink) Event(*core.Event) {}

func TestExactRouteFingerprints(t *testing.T) {
	cases := fingerprintCases(t)
	if *update {
		rows := make([]fingerprintRow, len(cases))
		for i, c := range cases {
			rows[i] = fingerprintOf(c.name, fingerprintRun(t, c, core.EngineSparse, nil))
		}
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), fingerprintFile)
		return
	}

	want := committedFingerprints(t)
	if len(want) != len(cases) {
		t.Fatalf("%s holds %d rows, the test defines %d cases", fingerprintFile, len(want), len(cases))
	}

	// One workspace per engine, reused by every case in table order.
	workspaces := map[core.Engine]*core.Workspace{
		core.EngineSparse: core.NewWorkspace(),
		core.EngineBatch:  core.NewWorkspace(),
	}
	for _, c := range cases {
		row, ok := want[c.name]
		if !ok {
			t.Fatalf("case %s has no committed row", c.name)
		}
		for _, engine := range []core.Engine{core.EngineSparse, core.EngineBatch} {
			for _, mode := range []string{"fresh", "workspace"} {
				var ws *core.Workspace
				if mode == "workspace" {
					ws = workspaces[engine]
				}
				t.Run(c.name+"/engine="+engine.String()+"/"+mode, func(t *testing.T) {
					if got := fingerprintOf(c.name, fingerprintRun(t, c, engine, ws)); got != row {
						t.Fatalf("fingerprint diverged from the committed table:\ngot  %+v\nwant %+v", got, row)
					}
				})
			}
		}
	}
}

// TestFastRouteFingerprints pins the "fast" engine name — the retired
// dense-index engine's, kept so old specs, flags, checkpoints and
// traces still parse — to the exact route: on the paper-sweep grid the
// dense engine served, ParseEngine("fast") must reproduce the committed
// EngineSparse rows bit for bit, fresh and through one workspace reused
// by every case in table order.
func TestFastRouteFingerprints(t *testing.T) {
	engine, err := core.ParseEngine("fast")
	if err != nil {
		t.Fatal(err)
	}
	want := committedFingerprints(t)
	ws := core.NewWorkspace()
	for _, c := range paperSweepCases(t) {
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
				if got := fingerprintOf(c.name, fingerprintRun(t, c, engine, w)); got != row {
					t.Fatalf("fingerprint diverged from the committed table:\ngot  %+v\nwant %+v", got, row)
				}
			})
		}
	}
}
