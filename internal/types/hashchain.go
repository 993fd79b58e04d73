package types

import "math/bits"

// HashChain is how a key finds its positions wherever one is looked up
// by hash: a join's build rows, a store's index, a grouping's groups, a
// value set. It threads positions 0, 1, 2, … of what the caller holds
// into buckets, a hash's low bits: head[b] is bucket b's first position
// and next[p] the one after p, both stored plus one, so zero is empty.
// A bucket, walked from the position linked last, may hold several
// hashes: a caller compares keys itself. A chain stores no hash: Link
// doubles a full chain's buckets (eight at first) and relinks each
// position, keeping bucket order, under the hash the caller recomputes.
type HashChain struct {
	head []int32 // len a power of two, at least 8, or 0 before the first Link
	next []int32
	n    int // positions linked (int32: no caller holds 2³¹)
}

// NewHashChain returns an empty chain with a bucket for each of
// positions positions, so that linking them never grows it, in one
// allocation.
func NewHashChain(positions int) HashChain {
	b := max(1<<bits.Len(uint(max(positions, 1)-1)), 8)
	buf := make([]int32, b+positions)
	return HashChain{head: buf[:b:b], next: buf[b:]}
}

// Buckets is the number of buckets: hash h is in bucket h&(Buckets()-1),
// so First(uint64(b)) walks bucket b.
func (c *HashChain) Buckets() int { return len(c.head) }

// First returns the position linked last in hash h's bucket, or -1 when
// it is empty: for p := c.First(h); p >= 0; p = c.Next(p) walks it.
func (c *HashChain) First(h uint64) int {
	if len(c.head) == 0 {
		return -1
	}
	return int(c.head[h&uint64(len(c.head)-1)]) - 1
}

// Next returns the position after pos in its bucket, or -1.
func (c *HashChain) Next(pos int) int { return int(c.next[pos]) - 1 }

// Link puts pos, which is not linked, first in hash h's bucket. If the
// buckets are full they double first, relinking each position p under
// rehash(p), the hash it was linked under; rehash may be nil on a chain
// NewHashChain sized for every position it will hold.
func (c *HashChain) Link(pos int, h uint64, rehash func(pos int) uint64) {
	c.Reserve(c.n+1, rehash)
	for len(c.next) <= pos {
		c.next = append(c.next, 0)
	}
	b := &c.head[h&uint64(len(c.head)-1)]
	c.next[pos], *b = *b, int32(pos+1)
	c.n++
}

// Reserve doubles the buckets, as Link does, until there is one for each
// of positions positions, so that a caller can link many without relinking.
func (c *HashChain) Reserve(positions int, rehash func(pos int) uint64) {
	for len(c.head) < positions {
		c.grow(rehash)
	}
}

// Unlink takes pos out of hash h's bucket, where it is linked.
func (c *HashChain) Unlink(pos int, h uint64) {
	at := &c.head[h&uint64(len(c.head)-1)]
	for int(*at) != pos+1 {
		at = &c.next[*at-1]
	}
	*at, c.next[pos] = c.next[pos], 0
	c.n--
}

// grow doubles the buckets, or makes the first ones, in one allocation
// with room for next to reach as many positions. Bucket b's positions
// split between new buckets b and b+len(old), each appended at its tail.
func (c *HashChain) grow(rehash func(pos int) uint64) {
	old, oldNext := c.head, c.next
	nb := max(2*len(old), 8)
	buf := make([]int32, nb+max(nb, len(oldNext)))
	c.head, c.next = buf[:nb:nb], buf[nb:nb+len(oldNext)]
	for b, p := range old {
		tail := [2]*int32{&c.head[b], &c.head[b+len(old)]}
		for ; p != 0; p = oldNext[p-1] {
			half := min(rehash(int(p-1))&uint64(len(old)), 1)
			*tail[half], tail[half] = p, &c.next[p-1]
		}
	}
}

// ValueSet is a set of values, each kept once as Value.Equal decides;
// NULL is one of them. The zero value is empty.
type ValueSet struct {
	vals  []Value
	chain HashChain
}

// Add puts v in the set and reports whether it was not there before.
func (s *ValueSet) Add(v Value) bool {
	h := v.Hash(0)
	for p := s.chain.First(h); p >= 0; p = s.chain.Next(p) {
		if s.vals[p].Equal(v) {
			return false
		}
	}
	s.chain.Link(len(s.vals), h, func(p int) uint64 { return s.vals[p].Hash(0) })
	s.vals = append(s.vals, v)
	return true
}
