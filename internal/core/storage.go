package core

// sparseStore is Config's edge set: per-node sorted adjacency rows,
// each undirected edge stored once in both endpoints' rows. Memory is
// O(n + m), membership O(log deg), updates and neighbor listing
// O(deg) — the paper's constructors build O(n)-edge targets, and the
// batch engine's swap surgery and swap-run collapse walk these rows in
// place.
type sparseStore struct {
	adj [][]int32
}

func newSparseStore(n int) sparseStore {
	return sparseStore{adj: make([][]int32, n)}
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

// get reports whether the edge {u, v} is active.
func (s *sparseStore) get(u, v int) bool {
	_, ok := s.find(u, v)
	return ok
}

// set writes the edge state and reports whether it changed.
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

// neighbors appends u's active neighbors to dst in ascending order and
// returns it.
func (s *sparseStore) neighbors(u int, dst []int) []int {
	for _, v := range s.adj[u] {
		dst = append(dst, int(v))
	}
	return dst
}

// forEach visits every active edge once as (u, v) with u < v, in
// lexicographic order.
func (s *sparseStore) forEach(fn func(u, v int)) {
	for u, row := range s.adj {
		for _, v := range row {
			if int(v) > u {
				fn(u, int(v))
			}
		}
	}
}

// clone returns a deep copy whose rows share one backing array, each
// capped at its own length so a later append reallocates that row
// alone.
func (s *sparseStore) clone() sparseStore {
	total := 0
	for _, row := range s.adj {
		total += len(row)
	}
	back := make([]int32, 0, total)
	c := newSparseStore(len(s.adj))
	for u, row := range s.adj {
		if len(row) > 0 {
			start := len(back)
			back = append(back, row...)
			c.adj[u] = back[start:len(back):len(back)]
		}
	}
	return c
}

// reset deactivates every edge in place, retaining the backing memory —
// the workspace path's allocation-free NewConfig.
func (s *sparseStore) reset() {
	for u := range s.adj {
		s.adj[u] = s.adj[u][:0]
	}
}

// copyFrom replaces the edge set with src's, reusing the backing
// memory. src has the receiver's population and may alias it.
func (s *sparseStore) copyFrom(src *sparseStore) {
	for u, row := range src.adj {
		s.adj[u] = append(s.adj[u][:0], row...)
	}
}
