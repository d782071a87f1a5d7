package core

import "math/bits"

// sparseStore is Config's edge set, each undirected edge recorded at
// both endpoints, in one of two record formats chosen from n alone by
// newSparseStore.
//
// Up to bitRowNodes nodes a node's record is its adjacency word: bit v
// of words[u] is edge {u, v}. A write is an XOR on two words, a read a
// bit test, and the bit-row index reads the same words as its
// adjacency, so an edge change is written once.
//
// Above bitRowNodes a node's record is a sorted adjacency row: memory
// O(n + m), membership O(log deg), updates and neighbor listing
// O(deg) — the paper's constructors build O(n)-edge targets, and the
// batch engine's swap surgery and swap-run collapse walk these rows in
// place. Every node owns one 8-byte record. A row of degree ≤ 2 —
// every interior node of a line or ring — lives inline in it, padded
// with noNbr; a longer row spills to a side pool and the record holds
// {pool index, spilled}. An interior swap thus reads its two rows from
// two records in one 8n-byte array instead of chasing a slice header
// to a separately allocated row. Outside this file every row read goes
// through row.
//
// The census index reads rows, so a census bound to a word store (a
// census-only workspace below 65 nodes) asks for them through
// keepRows; from then on the store keeps rows beside its words.
type sparseStore struct {
	words []uint64 // n ≤ bitRowNodes: the adjacency words; nil above
	rec   [][2]int32
	pool  spillPool[int32] // spilled rows, degree ≥ 3
}

const (
	noNbr   = -1 // an unused inline entry
	spilled = -2 // rec[u][1] of a spilled row; rec[u][0] is its pool index
)

func newSparseStore(n int) sparseStore {
	if n <= bitRowNodes {
		return sparseStore{words: make([]uint64, n)}
	}
	s := sparseStore{rec: make([][2]int32, n)}
	s.clearRows()
	return s
}

// keepRows makes a word store keep sorted adjacency rows beside its
// words, built from them on the first call. Row stores have them
// already.
func (s *sparseStore) keepRows() {
	if s.rec != nil {
		return
	}
	s.rec = make([][2]int32, len(s.words))
	s.rowsFromWords()
}

// rowsFromWords rebuilds a word store's rows from its words.
func (s *sparseStore) rowsFromWords() {
	s.clearRows()
	for u, w := range s.words {
		for ; w != 0; w &= w - 1 {
			s.setHalf(u, bits.TrailingZeros64(w), true)
		}
	}
}

// clearRows empties every row, retaining the pool rows' backing
// memory.
func (s *sparseStore) clearRows() {
	for u := range s.rec {
		s.rec[u] = [2]int32{noNbr, noNbr}
	}
	s.pool.releaseAll()
}

// row returns u's sorted adjacency row; a word store must keep rows
// (keepRows). An inline row aliases u's record, so it is valid only
// until the next write to u's edges.
func (s *sparseStore) row(u int) []int32 {
	r := &s.rec[u]
	switch {
	case r[1] >= 0:
		return r[:2]
	case r[1] == spilled:
		return s.pool.rows[r[0]]
	case r[0] >= 0:
		return r[:1]
	default:
		return r[:0]
	}
}

// find locates v in u's sorted adjacency row: a hand-rolled binary
// search — on protocol graphs the rows are a few entries long and the
// engines call this on every edge write and every probe of a spilled
// row, so the sort.Search closure indirection is measurable.
func (s *sparseStore) find(u, v int) (int, bool) {
	row := s.row(u)
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

// get reports whether the edge {u, v} is active: a bit test on a word
// store. An inline row answers with two compares: v ≥ 0 never matches
// the noNbr padding.
func (s *sparseStore) get(u, v int) bool {
	if s.words != nil {
		return s.words[u]>>uint(v)&1 != 0
	}
	if r := &s.rec[u]; r[1] != spilled {
		return r[0] == int32(v) || r[1] == int32(v)
	}
	_, ok := s.find(u, v)
	return ok
}

// set writes the edge state and reports whether it changed.
func (s *sparseStore) set(u, v int, active bool) bool {
	if s.words != nil {
		if (s.words[u]>>uint(v)&1 != 0) == active {
			return false
		}
		s.words[u] ^= 1 << uint(v)
		s.words[v] ^= 1 << uint(u)
		if s.rec == nil {
			return true
		}
		s.setHalf(u, v, active)
	} else if !s.setHalf(u, v, active) {
		return false
	}
	s.setHalf(v, u, active)
	return true
}

// setHalf writes v into or out of u's row at its sorted position i. A
// write that keeps the row inline allocates nothing; crossing degree
// 2↔3 moves the row between its record and a pool row.
func (s *sparseStore) setHalf(u, v int, active bool) bool {
	i, present := s.find(u, v)
	if present == active {
		return false
	}
	r := &s.rec[u]
	switch {
	case r[1] == spilled:
		row := s.pool.rows[r[0]]
		if active {
			row = append(row, 0)
			copy(row[i+1:], row[i:])
			row[i] = int32(v)
		} else {
			row = append(row[:i], row[i+1:]...)
		}
		s.pool.rows[r[0]] = row
		if len(row) == 2 {
			s.pool.release(r[0])
			*r = [2]int32{row[0], row[1]}
		}
	case active && r[1] >= 0:
		p := s.pool.take()
		row := append(s.pool.rows[p], r[0], r[1], 0)
		copy(row[i+1:], row[i:])
		row[i] = int32(v)
		s.pool.rows[p] = row
		*r = [2]int32{p, spilled}
	case active:
		if i == 0 {
			r[1] = r[0]
		}
		r[i] = int32(v)
	default:
		if i == 0 {
			r[0] = r[1]
		}
		r[1] = noNbr
	}
	return true
}

// spillPool holds the rows that outgrew a node's inline record —
// adjacency rows here, batchIndex's mirror entries — indexed by an
// int32 the record keeps. A released row keeps its capacity for the
// next take.
type spillPool[T any] struct {
	rows [][]T
	free []int32
}

// take returns the index of an empty row, reusing a released one when
// there is one.
func (p *spillPool[T]) take() int32 {
	if k := len(p.free); k > 0 {
		i := p.free[k-1]
		p.free = p.free[:k-1]
		p.rows[i] = p.rows[i][:0]
		return i
	}
	p.rows = append(p.rows, nil)
	return int32(len(p.rows) - 1)
}

// release returns row i to the free list.
func (p *spillPool[T]) release(i int32) {
	p.free = append(p.free, i)
}

// releaseAll returns every row to the free list, lowest index on top.
func (p *spillPool[T]) releaseAll() {
	p.free = p.free[:0]
	for i := len(p.rows) - 1; i >= 0; i-- {
		p.free = append(p.free, int32(i))
	}
}

// neighbors appends u's active neighbors to dst in ascending order and
// returns it.
func (s *sparseStore) neighbors(u int, dst []int) []int {
	if s.words != nil {
		for w := s.words[u]; w != 0; w &= w - 1 {
			dst = append(dst, bits.TrailingZeros64(w))
		}
	} else {
		// row's switch would cost this body its inlining: a spilled
		// row is the pool's, and an inline row lists its entries ≥ 0.
		row := s.rec[u][:]
		if row[1] == spilled {
			row = s.pool.rows[row[0]]
		}
		for _, v := range row {
			if v >= 0 {
				dst = append(dst, int(v))
			}
		}
	}
	return dst
}

// forEach visits every active edge once as (u, v) with u < v, in
// lexicographic order.
func (s *sparseStore) forEach(fn func(u, v int)) {
	if s.words != nil {
		for u, w := range s.words {
			// Keep the bits above u: each edge is visited from its
			// lower endpoint.
			for w &^= 2<<uint(u) - 1; w != 0; w &= w - 1 {
				fn(u, bits.TrailingZeros64(w))
			}
		}
		return
	}
	for u := range s.rec {
		for _, v := range s.row(u) {
			if int(v) > u {
				fn(u, int(v))
			}
		}
	}
}

// clone returns a deep copy. A word store copies its words (the copy
// keeps no rows). A row store's spilled rows share one backing array
// in the copy, each capped at its own length so a later append
// reallocates that row alone; the copy's pool holds exactly the
// spilled rows.
func (s *sparseStore) clone() sparseStore {
	if s.words != nil {
		return sparseStore{words: append([]uint64(nil), s.words...)}
	}
	c := sparseStore{rec: make([][2]int32, len(s.rec))}
	copy(c.rec, s.rec)
	total, rows := 0, 0
	for u := range s.rec {
		if s.rec[u][1] == spilled {
			total += len(s.row(u))
			rows++
		}
	}
	if rows == 0 {
		return c
	}
	back := make([]int32, 0, total)
	c.pool.rows = make([][]int32, 0, rows)
	for u := range c.rec {
		if r := &c.rec[u]; r[1] == spilled {
			start := len(back)
			back = append(back, s.pool.rows[r[0]]...)
			r[0] = int32(len(c.pool.rows))
			c.pool.rows = append(c.pool.rows, back[start:len(back):len(back)])
		}
	}
	return c
}

// reset deactivates every edge in place, retaining the pool rows'
// backing memory — the workspace path's allocation-free NewConfig.
func (s *sparseStore) reset() {
	clear(s.words)
	s.clearRows()
}

// copyFrom replaces the edge set with src's, reusing the backing
// memory. src has the receiver's population and may alias it.
func (s *sparseStore) copyFrom(src *sparseStore) {
	if src == s {
		return
	}
	if s.words != nil {
		copy(s.words, src.words)
		if s.rec != nil {
			s.rowsFromWords()
		}
		return
	}
	s.pool.releaseAll()
	copy(s.rec, src.rec)
	for u := range s.rec {
		if r := &s.rec[u]; r[1] == spilled {
			p := s.pool.take()
			s.pool.rows[p] = append(s.pool.rows[p], src.pool.rows[r[0]]...)
			r[0] = p
		}
	}
}
