package core

// pairCount returns the number of unordered pairs over n nodes,
// |E_I| = n(n−1)/2.
func pairCount(n int) int { return n * (n - 1) / 2 }

// pairIndex maps the unordered pair {u, v}, u ≠ v, into the dense
// upper-triangular index space [0, n(n−1)/2).
func pairIndex(n, u, v int) int {
	if u > v {
		u, v = v, u
	}
	// Row u starts after rows 0..u−1, which hold (n−1) + (n−2) + …
	// entries.
	return u*(2*n-u-1)/2 + (v - u - 1)
}

// pairFromIndex inverts pairIndex by scanning the rows, in O(n): the
// round-robin and permutation schedulers map their pair index to a
// pair through it.
func pairFromIndex(n, idx int) (u, v int) {
	u = 0
	rowLen := n - 1
	for idx >= rowLen {
		idx -= rowLen
		u++
		rowLen--
	}
	return u, u + 1 + idx
}
