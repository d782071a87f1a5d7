package core

import (
	"testing"
	"testing/quick"
)

func TestTriangularIndexRoundTrip(t *testing.T) {
	t.Parallel()
	for n := 2; n <= 40; n++ {
		seen := make(map[int]bool, pairCount(n))
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				idx := pairIndex(n, u, v)
				if idx < 0 || idx >= pairCount(n) {
					t.Fatalf("n=%d (%d,%d): index %d out of range", n, u, v, idx)
				}
				if seen[idx] {
					t.Fatalf("n=%d (%d,%d): duplicate index %d", n, u, v, idx)
				}
				seen[idx] = true
				gu, gv := pairFromIndex(n, idx)
				if gu != u || gv != v {
					t.Fatalf("n=%d: pairFromIndex(%d) = (%d,%d), want (%d,%d)", n, idx, gu, gv, u, v)
				}
			}
		}
		if len(seen) != pairCount(n) {
			t.Fatalf("n=%d: %d distinct indices, want %d", n, len(seen), pairCount(n))
		}
	}
}

func TestTriangularIndexSymmetric(t *testing.T) {
	t.Parallel()
	f := func(a, b uint8) bool {
		n := 50
		u, v := int(a)%n, int(b)%n
		if u == v {
			return true
		}
		return pairIndex(n, u, v) == pairIndex(n, v, u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
