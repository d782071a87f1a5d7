package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// checker verifies every finished run inside the campaign's metric
// hook, the one place the run's final configuration is still in hand.
// A run that fails a check reports NaN as its metric value, which the
// pass loop counts as a failed trial; the first failure's message is
// kept. The hook runs on a campaign worker goroutine, hence the mutex.
type checker struct {
	mu    sync.Mutex
	ns    int64
	first string
}

// attach wraps the point's metric with the generic run checks and the
// workload's own check, which replaces the generic re-check of a
// converged run's final configuration by its detector.
func (c *checker) attach(pt *campaign.Point, check func(*campaign.Point, core.Result) error) {
	metric := pt.Metric
	if metric == nil {
		metric = campaign.MetricConvergenceTime
	}
	ref := *pt
	pt.Metric = func(res core.Result, n int) float64 {
		start := time.Now()
		err := checkRun(&ref, res)
		if err == nil && check != nil {
			err = check(&ref, res)
		}
		value := math.NaN()
		if err == nil {
			value = metric(res, n)
		}
		c.mu.Lock()
		c.ns += time.Since(start).Nanoseconds()
		if err != nil && c.first == "" {
			c.first = fmt.Sprintf("%s n=%d: %v", ref.Protocol, n, err)
		}
		c.mu.Unlock()
		return value
	}
}

// elapsed is the total time spent in checks so far.
func (c *checker) elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.ns)
}

func (c *checker) firstFailure() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.first
}

// checkRun holds every run to the engine contract: the step accounting
// law, counters bounded by the steps taken, and the step budget.
func checkRun(pt *campaign.Point, res core.Result) error {
	m := res.Metrics
	if m.Landings+m.SkippedSteps+m.CollapsedLandings != res.Steps {
		return fmt.Errorf("%d landings + %d skipped + %d collapsed steps do not add up to %d steps",
			m.Landings, m.SkippedSteps, m.CollapsedLandings, res.Steps)
	}
	if res.EffectiveSteps > res.Steps || res.ConvergenceTime > res.Steps {
		return fmt.Errorf("%d effective steps or convergence at step %d exceed the %d steps taken",
			res.EffectiveSteps, res.ConvergenceTime, res.Steps)
	}
	if pt.MaxSteps > 0 && res.Steps > pt.MaxSteps {
		return fmt.Errorf("%d steps exceed the %d-step budget", res.Steps, pt.MaxSteps)
	}
	return nil
}

// checkStable re-checks a converged run's final configuration with its
// detector's predicate.
func checkStable(pt *campaign.Point, res core.Result) error {
	if res.Converged && pt.Detector.Stable != nil && !pt.Detector.Stable(res.Final) {
		return errors.New("reported convergence on a configuration its detector rejects")
	}
	return nil
}

// lineDegree is the active degree each Simple-Global-Line state implies
// on every reachable configuration: q0 nodes are isolated, q1 and l
// nodes end a line, q2 and w nodes are interior to one.
var lineDegree = map[string]int{"q0": 0, "q1": 1, "q2": 2, "l": 1, "w": 2}

// checkLine checks Simple-Global-Line's invariant on the configuration
// a run ended in: the degrees its states imply, an acyclic active graph
// (so a disjoint union of paths), and exactly one leader — an l or w
// node — on every path of two or more nodes. A converged run must in
// addition have ended in a spanning line, and under the quiescence
// detector with its leader in state l, since a w leader can still
// move: that is the detector's verdict in O(n) instead of the O(n²)
// pair scan of Config.Quiescent.
func checkLine(pt *campaign.Point, res core.Result) error {
	cfg := res.Final
	p := cfg.Protocol()
	names := p.States()
	deg := make([]int, len(names))
	for s, name := range names {
		d, ok := lineDegree[name]
		if !ok {
			return fmt.Errorf("unexpected state %q", name)
		}
		deg[s] = d
	}
	n := cfg.N()
	for u := 0; u < n; u++ {
		if s := cfg.Node(u); cfg.Degree(u) != deg[s] {
			return fmt.Errorf("node %d in state %s has active degree %d, want %d", u, names[s], cfg.Degree(u), deg[s])
		}
	}
	l, _ := p.StateIndex("l")
	w, _ := p.StateIndex("w")
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	cyclic := false
	cfg.ForEachActiveEdge(func(u, v int) {
		if ru, rv := find(int32(u)), find(int32(v)); ru != rv {
			parent[ru] = rv
		} else {
			cyclic = true
		}
	})
	if cyclic {
		return errors.New("the active graph has a cycle")
	}
	leaders := make([]int32, n)
	for u := 0; u < n; u++ {
		if s := cfg.Node(u); s == l || s == w {
			leaders[find(int32(u))]++
		}
	}
	for u := 0; u < n; u++ {
		if cfg.Degree(u) > 0 && parent[u] == int32(u) && leaders[u] != 1 {
			return fmt.Errorf("the line containing node %d has %d leaders, want 1", u, leaders[u])
		}
	}
	if !res.Converged {
		return nil
	}
	if cfg.ActiveEdges() != n-1 {
		return fmt.Errorf("reported convergence with %d active edges, want a spanning line's %d", cfg.ActiveEdges(), n-1)
	}
	if pt.Detector.Gate == core.GateQuiescence && cfg.Count(w) != 0 {
		return errors.New("reported quiescence while a walker can still move")
	}
	return nil
}
