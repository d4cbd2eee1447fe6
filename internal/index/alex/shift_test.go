package alex

import (
	"math/rand"
	"slices"
	"testing"
)

// rotatedTwin returns a copy of n whose full blocks carry the rotations rot
// picks (taken mod 64) and whose arrays hold n's slots under them; a partial
// last block stays unrotated.
func rotatedTwin(n *dataNode, rot func(b int) uint8) *dataNode {
	c := len(n.keys)
	t := &dataNode{keys: make([]uint64, c), vals: make([]uint64, c), occ: slices.Clone(n.occ),
		rot: make([]uint8, len(n.occ)), size: n.size, model: n.model}
	for b := 0; b < c>>6; b++ {
		t.rot[b] = rot(b) & 63
	}
	keys, vals := logical(n)
	for s := range keys {
		t.keys[t.at(s)], t.vals[t.at(s)] = keys[s], vals[s]
	}
	return t
}

// checkRotations requires every rotation in [0, 64) and none on a partial
// last block.
func checkRotations(t testing.TB, n *dataNode) {
	t.Helper()
	for b, r := range n.rot {
		if r > 63 || r != 0 && b<<6+64 > len(n.keys) {
			t.Fatalf("cap %d: block %d has rotation %d", len(n.keys), b, r)
		}
	}
}

// shiftBoth moves the run between slot pos and the gap one slot toward the
// gap, as insertAt does: on twin through shiftRight or shiftLeft, on plain (an
// unrotated node) with a plain copy. Then every slot, gaps included, must
// read the same on both.
func shiftBoth(t testing.TB, plain, twin *dataNode, pos, gap int) {
	t.Helper()
	rot := slices.Clone(twin.rot)
	if gap >= pos {
		twin.shiftRight(pos, gap)
		copy(plain.keys[pos+1:gap+1], plain.keys[pos:gap])
		copy(plain.vals[pos+1:gap+1], plain.vals[pos:gap])
	} else {
		twin.shiftLeft(gap, pos)
		copy(plain.keys[gap:pos], plain.keys[gap+1:pos+1])
		copy(plain.vals[gap:pos], plain.vals[gap+1:pos+1])
	}
	checkRotations(t, twin)
	gk, gv := logical(twin)
	if !slices.Equal(gk, plain.keys) || !slices.Equal(gv, plain.vals) {
		t.Fatalf("cap %d rot %v: shift from %d to gap %d diverged from a plain copy", len(plain.keys), rot, pos, gap)
	}
}

// distinctNode is an unrotated node of capacity c whose every slot holds its
// own key and value, so a misplaced entry or a touched gap shows.
func distinctNode(c int) *dataNode {
	n := &dataNode{keys: make([]uint64, c), vals: make([]uint64, c), occ: newBitset(c)}
	n.rot = make([]uint8, len(n.occ))
	for s := range n.keys {
		n.keys[s], n.vals[s] = uint64(s)<<8|1, uint64(s)<<8|2
	}
	return n
}

// TestShiftMatchesCopy: shifts that span zero to every block of the node,
// start or end at either end of it and compound on each other's rotations
// leave every slot as a plain copy over an unrotated twin does.
func TestShiftMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, c := range []int{16, 63, 64, 65, 129, 200, 2926} {
		for trial := 0; trial < 40; trial++ {
			plain := distinctNode(c)
			twin := rotatedTwin(plain, func(int) uint8 { return uint8(rng.Intn(64)) })
			for shift := 0; shift < 50; shift++ {
				run := min(rng.Intn(c>>6+1)<<6+rng.Intn(64), c-1)
				lo := rng.Intn(c - run)
				switch rng.Intn(4) {
				case 0:
					lo = 0
				case 1:
					lo = c - 1 - run
				}
				if rng.Intn(2) == 0 {
					shiftBoth(t, plain, twin, lo, lo+run)
				} else {
					shiftBoth(t, plain, twin, lo+run, lo)
				}
			}
		}
	}
}

// FuzzGappedShift drives one shift over a node of any capacity under any
// rotations: pos and gap pick the run, and the shift goes toward the gap.
func FuzzGappedShift(f *testing.F) {
	f.Add(uint16(200), []byte{5, 63, 1}, uint16(3), uint16(190))
	f.Add(uint16(2926), []byte{17}, uint16(2925), uint16(0))
	f.Add(uint16(64), []byte{}, uint16(0), uint16(63))
	f.Fuzz(func(t *testing.T, capacity uint16, offsets []byte, pos, gap uint16) {
		c := 1 + int(capacity)%4096
		plain := distinctNode(c)
		twin := rotatedTwin(plain, func(b int) uint8 {
			if len(offsets) == 0 {
				return 0
			}
			return offsets[b%len(offsets)]
		})
		shiftBoth(t, plain, twin, int(pos)%c, int(gap)%c)
	})
}
