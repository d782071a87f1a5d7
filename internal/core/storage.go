package core

import (
	"math/bits"
	"sort"
	"strings"
)

// maxDenseEdgeNodes is the population threshold of the edge-storage
// strategy: configurations up to this size keep the triangular edge
// bitset (n²/16 bytes — ≤ 1 MB at the threshold, and O(1) edge reads
// for the hot dense-regime paths), larger ones switch to per-node
// sorted adjacency sets whose memory is O(n + m) and whose operations
// cost O(log deg) / O(deg). Every engine runs on either store; the
// batch engine's swap surgery and swap-run collapse walk adjacency
// rows, so they engage only above the threshold.
const maxDenseEdgeNodes = 1 << 12

// edgeStore is the pluggable storage strategy behind Config's edge
// set. Implementations store each undirected edge once and must treat
// (u, v) and (v, u) identically.
type edgeStore interface {
	// get reports whether the edge {u, v} is active.
	get(u, v int) bool
	// set writes the edge state and reports whether it changed.
	set(u, v int, active bool) bool
	// neighbors appends u's active neighbors to dst in ascending order
	// and returns it.
	neighbors(u int, dst []int) []int
	// forEach visits every active edge once as (u, v) with u < v, in
	// lexicographic order.
	forEach(fn func(u, v int))
	// clone returns a deep copy.
	clone() edgeStore
	// reset deactivates every edge in place, retaining the backing
	// memory — the workspace path's allocation-free NewConfig.
	reset()
	// copyFrom replaces the edge set with src's, reusing the backing
	// memory. The receiver and src are always the same kind and
	// population (the kind is a pure function of n, which callers match
	// before copying); src may alias the receiver.
	copyFrom(src edgeStore)
	// appendFingerprint writes a canonical encoding of the edge set.
	// Encodings are canonical per storage kind (a Config's kind is
	// fixed by n at construction, so fingerprints of same-n configs
	// are always comparable).
	appendFingerprint(sb *strings.Builder)
}

// newEdgeStore picks the storage strategy for a population of n nodes.
func newEdgeStore(n int) edgeStore {
	if n <= maxDenseEdgeNodes {
		return &denseStore{n: n, bits: newBitset(pairCount(n))}
	}
	return &sparseStore{n: n, adj: make([][]int32, n)}
}

// denseStore is the triangular bitset over all n(n−1)/2 pairs: Θ(n²)
// bits, O(1) reads and writes.
type denseStore struct {
	n    int
	bits bitset
}

func (s *denseStore) get(u, v int) bool {
	return s.bits.get(pairIndex(s.n, u, v))
}

func (s *denseStore) set(u, v int, active bool) bool {
	idx := pairIndex(s.n, u, v)
	if s.bits.get(idx) == active {
		return false
	}
	s.bits.set(idx, active)
	return true
}

func (s *denseStore) neighbors(u int, dst []int) []int {
	// The pairs {v, u} with v < u sit one per earlier row, n−2−v bits
	// apart; the pairs {u, v} with v > u are row u, the contiguous bit
	// range starting at pairIndex(n, u, u+1), scanned wordwise as in
	// forEach.
	for v, i := 0, u-1; v < u; v++ {
		if s.bits.get(i) {
			dst = append(dst, v)
		}
		i += s.n - 2 - v
	}
	if u >= s.n-1 {
		return dst
	}
	start := pairIndex(s.n, u, u+1)
	end := start + s.n - u - 1
	for i := start; i < end; {
		w := s.bits[i>>6] >> (uint(i) & 63)
		if w == 0 {
			i += 64 - (i & 63)
			continue
		}
		i += bits.TrailingZeros64(w)
		if i >= end {
			break
		}
		dst = append(dst, u+1+(i-start))
		i++
	}
	return dst
}

func (s *denseStore) forEach(fn func(u, v int)) {
	// Row u of the triangular layout is the contiguous bit range
	// [start, start + n−u−1); scan it wordwise so the whole walk costs
	// O(n + n²/64 + m) instead of n²/2 single-bit reads.
	start := 0
	for u := 0; u < s.n-1; u++ {
		end := start + s.n - u - 1
		for i := start; i < end; {
			w := s.bits[i>>6] >> (uint(i) & 63)
			if w == 0 {
				i += 64 - (i & 63)
				continue
			}
			i += bits.TrailingZeros64(w)
			if i >= end {
				break
			}
			fn(u, u+1+(i-start))
			i++
		}
		start = end
	}
}

func (s *denseStore) clone() edgeStore {
	return &denseStore{n: s.n, bits: s.bits.clone()}
}

func (s *denseStore) reset() {
	for i := range s.bits {
		s.bits[i] = 0
	}
}

func (s *denseStore) copyFrom(src edgeStore) {
	copy(s.bits, src.(*denseStore).bits)
}

func (s *denseStore) appendFingerprint(sb *strings.Builder) {
	sb.Grow(len(s.bits) * 8)
	for _, w := range s.bits {
		for shift := 0; shift < 64; shift += 8 {
			sb.WriteByte(byte(w >> shift))
		}
	}
}

// sparseStore keeps per-node sorted adjacency sets: O(n + m) memory,
// O(log deg) membership, O(deg) updates and neighbor listing.
type sparseStore struct {
	n   int
	adj [][]int32
}

// find locates v in u's sorted adjacency row: a hand-rolled binary
// search — on protocol graphs the rows are a few entries long and the
// engines call this on every edge probe, so the sort.Search closure
// indirection is measurable.
func (s *sparseStore) find(u, v int) (int, bool) {
	row := s.adj[u]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(row) && row[lo] == int32(v)
}

func (s *sparseStore) get(u, v int) bool {
	_, ok := s.find(u, v)
	return ok
}

func (s *sparseStore) set(u, v int, active bool) bool {
	if !s.setHalf(u, v, active) {
		return false
	}
	s.setHalf(v, u, active)
	return true
}

func (s *sparseStore) setHalf(u, v int, active bool) bool {
	i, present := s.find(u, v)
	if present == active {
		return false
	}
	row := s.adj[u]
	if active {
		row = append(row, 0)
		copy(row[i+1:], row[i:])
		row[i] = int32(v)
	} else {
		row = append(row[:i], row[i+1:]...)
	}
	s.adj[u] = row
	return true
}

func (s *sparseStore) neighbors(u int, dst []int) []int {
	for _, v := range s.adj[u] {
		dst = append(dst, int(v))
	}
	return dst
}

func (s *sparseStore) forEach(fn func(u, v int)) {
	for u, row := range s.adj {
		for _, v := range row {
			if int(v) > u {
				fn(u, int(v))
			}
		}
	}
}

func (s *sparseStore) clone() edgeStore {
	c := &sparseStore{n: s.n, adj: make([][]int32, len(s.adj))}
	for u, row := range s.adj {
		if len(row) > 0 {
			c.adj[u] = append([]int32(nil), row...)
		}
	}
	return c
}

func (s *sparseStore) reset() {
	for u := range s.adj {
		s.adj[u] = s.adj[u][:0]
	}
}

func (s *sparseStore) copyFrom(src edgeStore) {
	for u, row := range src.(*sparseStore).adj {
		s.adj[u] = append(s.adj[u][:0], row...)
	}
}

func (s *sparseStore) appendFingerprint(sb *strings.Builder) {
	// Per-node upper rows, length-prefixed so the encoding is
	// self-delimiting: for each u, the count of neighbors v > u then
	// the neighbor ids, all little-endian uint32.
	writeU32 := func(x uint32) {
		sb.WriteByte(byte(x))
		sb.WriteByte(byte(x >> 8))
		sb.WriteByte(byte(x >> 16))
		sb.WriteByte(byte(x >> 24))
	}
	for u, row := range s.adj {
		i := sort.Search(len(row), func(i int) bool { return row[i] > int32(u) })
		upper := row[i:]
		writeU32(uint32(len(upper)))
		for _, v := range upper {
			writeU32(uint32(v))
		}
	}
}
