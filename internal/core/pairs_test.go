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

func TestBitsetSetGet(t *testing.T) {
	t.Parallel()
	f := func(positions []uint16) bool {
		const bits = 1000
		b := newBitset(bits)
		ref := make(map[int]bool, len(positions))
		for _, p := range positions {
			i := int(p) % bits
			val := p%3 != 0
			b.set(i, val)
			ref[i] = val
		}
		for i := 0; i < bits; i++ {
			if b.get(i) != ref[i] {
				return false
			}
		}
		count := 0
		for _, v := range ref {
			if v {
				count++
			}
		}
		return b.popcount() == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetCloneIndependent(t *testing.T) {
	t.Parallel()
	b := newBitset(128)
	b.set(5, true)
	c := b.clone()
	c.set(5, false)
	c.set(77, true)
	if !b.get(5) || b.get(77) {
		t.Fatal("clone shares storage with original")
	}
}
