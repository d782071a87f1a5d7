// Package universal implements the paper's Section 6 generic
// constructors: the population partitions (U/D and U/D/M), the
// equiprobable random-graph drawing over counter-addressed edges, the
// accept/retry loop of Fig. 3, Remark 2's deterministic constructor,
// and the supernode organization of Theorem 18.
//
// The partition and line-construction phases run as real network
// constructors on the full population (inert nodes simply never match
// a rule, so the uniform scheduler's wasted interactions are charged
// naturally). The TM-controlled phases that follow are not interpreted
// step by step: each is charged the interactions its operations
// consume. Every head move, counter walk and edge probe pays the
// geometrically distributed number of global interactions the uniform
// random scheduler needs to deliver the one pair that makes progress.
// The charge has the law of the real schedule while TM control is
// sequential: exactly one pair of the n(n−1)/2 can advance the
// machine, every other draw changes nothing the phase reads, and the
// scheduler picks that pair with probability 2/(n(n−1)) independently
// per step, so the wait for it is geometric. A phase of k such waits
// is charged their sum in one core.RNG negative-binomial draw, and a
// wait for any of m pairs is one core.RNG geometric draw.
package universal

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Partition state indices shared by the U/D and U/D/M partitions.
const (
	puQ0 core.State = iota
	puQU
	puQD
	puQUp // q_u′: a U node that has not yet acquired its M neighbor
	puQM
	puQMp // q_m′: an M node that must first release its D neighbor
)

// PartitionUD returns the Theorem 14 partition protocol
// (q0,q0,0) → (qu,qd,1): a maximum matching between an upper set U and
// a lower set D of ⌊n/2⌋ nodes each.
func PartitionUD() (*core.Protocol, core.Detector) {
	p := core.MustProtocol(
		"Partition-UD",
		[]string{"q0", "qu", "qd"},
		puQ0,
		nil,
		[]core.Rule{{A: puQ0, B: puQ0, Edge: false, OutA: puQU, OutB: puQD, OutEdge: true}},
	)
	det := core.Detector{
		Trigger: core.TriggerEffective,
		Stable:  func(cfg *core.Config) bool { return cfg.Count(puQ0) <= 1 },
	}
	return p, det
}

// PartitionUDM returns the Theorem 15 partition protocol building
// three equal sets: every U node is matched to one D node and one M
// node. An unsatisfied U node (q_u′) may steal another unsatisfied U
// node as its M neighbor, whose own D neighbor is then released back
// to q0.
func PartitionUDM() (*core.Protocol, core.Detector) {
	p := core.MustProtocol(
		"Partition-UDM",
		[]string{"q0", "qu", "qd", "qu'", "qm", "qm'"},
		puQ0,
		nil,
		[]core.Rule{
			{A: puQ0, B: puQ0, Edge: false, OutA: puQUp, OutB: puQD, OutEdge: true},
			{A: puQUp, B: puQ0, Edge: false, OutA: puQU, OutB: puQM, OutEdge: true},
			{A: puQUp, B: puQUp, Edge: false, OutA: puQU, OutB: puQMp, OutEdge: true},
			{A: puQMp, B: puQD, Edge: true, OutA: puQM, OutB: puQ0, OutEdge: false},
		},
	)
	det := core.Detector{
		Trigger: core.TriggerEffective,
		Stable: func(cfg *core.Config) bool {
			return cfg.Count(puQMp) == 0 && cfg.Count(puQ0)+cfg.Count(puQUp) <= 1
		},
	}
	return p, det
}

// Membership of a partition run's final configuration.
type partition struct {
	u, d, m []int
}

func classify(cfg *core.Config) partition {
	var part partition
	for i := 0; i < cfg.N(); i++ {
		switch cfg.Node(i) {
		case puQU:
			part.u = append(part.u, i)
		case puQD:
			part.d = append(part.d, i)
		case puQM:
			part.m = append(part.m, i)
		}
	}
	return part
}

// matchedD returns, for each U node, its matched D node (the active
// neighbor in D).
func matchedD(cfg *core.Config, part partition) (map[int]int, error) {
	match := make(map[int]int, len(part.u))
	for _, u := range part.u {
		found := -1
		for _, v := range part.d {
			if cfg.Edge(u, v) {
				if found >= 0 {
					return nil, fmt.Errorf("universal: U node %d matched twice", u)
				}
				found = v
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("universal: U node %d unmatched", u)
		}
		match[u] = found
	}
	return match, nil
}

var errPopulationTooSmall = errors.New("universal: population too small for this construction")
