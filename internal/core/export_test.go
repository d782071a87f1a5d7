package core

// NewCensusWorkspace returns a workspace whose runs use the state-class
// census index at every population: the seam through which this
// package's external tests and benchmarks compare the two enabled-pair
// indexes at the same n.
func NewCensusWorkspace() *Workspace { return &Workspace{censusOnly: true} }
