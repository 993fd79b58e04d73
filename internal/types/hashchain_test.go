package types

import (
	"slices"
	"testing"
)

// bucketOf walks hash h's bucket.
func bucketOf(c *HashChain, h uint64) []int {
	var out []int
	for p := c.First(h); p >= 0; p = c.Next(p) {
		out = append(out, p)
	}
	return out
}

func TestHashChain(t *testing.T) {
	var c HashChain
	if c.First(7) != -1 {
		t.Fatal("the zero chain is not empty")
	}
	hashes := map[int]uint64{}
	rehash := func(p int) uint64 { return hashes[p] }
	link := func(p int, h uint64) {
		hashes[p] = h
		c.Link(p, h, rehash)
	}
	// Three hashes that share a bucket at every size up to 2¹⁰, and one
	// that does not; positions out of order, with gaps.
	for _, p := range []int{5, 0, 9, 3, 40, 12, 2} {
		link(p, uint64(p%3)<<10)
	}
	link(7, 1)
	if got := bucketOf(&c, 0); !slices.Equal(got, []int{2, 12, 40, 3, 9, 0, 5}) {
		t.Errorf("bucket of 0 = %v, want every position of the three hashes, last linked first", got)
	}
	if c.Buckets() != 8 {
		t.Errorf("%d buckets for 8 positions, want 8", c.Buckets())
	}
	link(30, 2<<10) // the ninth position doubles the buckets
	if c.Buckets() != 16 {
		t.Fatalf("%d buckets for 9 positions, want 16", c.Buckets())
	}
	if got := bucketOf(&c, 0); !slices.Equal(got, []int{30, 2, 12, 40, 3, 9, 0, 5}) {
		t.Errorf("bucket of 0 after growth = %v, want the order kept", got)
	}
	if got := bucketOf(&c, 1); !slices.Equal(got, []int{7}) {
		t.Errorf("bucket of 1 = %v", got)
	}
	for _, p := range []int{30, 40, 5} { // first, middle and last of the bucket
		c.Unlink(p, hashes[p])
	}
	link(40, 1)
	if got := bucketOf(&c, 0); !slices.Equal(got, []int{2, 12, 3, 9, 0}) {
		t.Errorf("bucket of 0 after unlinking = %v", got)
	}
	if got := bucketOf(&c, 1); !slices.Equal(got, []int{40, 7}) {
		t.Errorf("bucket of 1 after relinking = %v", got)
	}

	// A chain sized for its positions is one allocation and never grows.
	const n = 1000
	if allocs := testing.AllocsPerRun(10, func() {
		c := NewHashChain(n)
		for p := n - 1; p >= 0; p-- {
			c.Link(p, uint64(p), nil)
		}
	}); allocs != 1 {
		t.Errorf("a chain of %d positions costs %v allocations, want 1", n, allocs)
	}
}

func TestValueSet(t *testing.T) {
	var s ValueSet
	var added []Value
	for _, v := range []Value{NewInt(1), Null, NewString("1"), NewFloat(1), Null, NewInt(2), NewString("1")} {
		if s.Add(v) {
			added = append(added, v)
		}
	}
	if want := []Value{NewInt(1), Null, NewString("1"), NewInt(2)}; !slices.EqualFunc(added, want, Value.Equal) {
		t.Errorf("added %v, want %v: NULL once, 1.0 equal to 1", added, want)
	}
	for i := 0; i < 100; i++ { // past a few doublings
		if !s.Add(NewInt(int64(i + 10))) {
			t.Fatalf("%d is new", i+10)
		}
	}
	if s.Add(NewInt(50)) || !s.Add(NewInt(5)) {
		t.Error("membership after growth")
	}
}

// FuzzHashChain decodes link, unlink, grow and probe operations from
// bytes and holds every probe to a model that keeps each hash's
// positions, last linked first, in a map. At the end every linked
// position is found once, in its hash's bucket.
func FuzzHashChain(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 3, 3, 1, 2, 1, 1, 3, 1})
	f.Add([]byte{20, 0, 9, 0, 0, 8, 0, 2, 3, 0, 1, 9, 0, 3, 0})
	f.Add([]byte("link unlink grow probe, link unlink grow probe; positions and hashes"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		// The first byte chooses a zero chain or one NewHashChain sized.
		var c HashChain
		if ops[0]%2 == 1 {
			c = NewHashChain(int(ops[0] / 2))
		}
		ops = ops[1:]
		model := map[uint64][]int32{}
		hashOf := map[int]uint64{} // linked positions
		rehash := func(p int) uint64 { return hashOf[p] }
		// Hashes spread one byte over 64 bits, so that their low bits
		// share buckets at every size and some bytes repeat a hash.
		hash := func(b byte) uint64 { return uint64(b%32) * 0x9e3779b97f4a7c15 }
		arg := func(i int) byte {
			if i < len(ops) {
				return ops[i]
			}
			return 0
		}
		probe := func(h uint64) {
			var got []int32
			for p, walked := c.First(h), 0; p >= 0; p, walked = c.Next(p), walked+1 {
				if walked > len(hashOf) {
					t.Fatalf("bucket of %x does not end", h)
				}
				if hp, ok := hashOf[p]; !ok {
					t.Fatalf("position %d in bucket of %x is not linked", p, h)
				} else if hp == h {
					got = append(got, int32(p))
				}
			}
			if !slices.Equal(got, model[h]) {
				t.Fatalf("probe of %x = %v, want %v", h, got, model[h])
			}
		}
		for i := 0; i < len(ops); i += 3 {
			pos, h := int(arg(i+1)), hash(arg(i+2))
			switch ops[i] % 4 {
			case 0: // link
				if _, linked := hashOf[pos]; linked {
					continue
				}
				c.Link(pos, h, rehash)
				hashOf[pos] = h
				model[h] = append([]int32{int32(pos)}, model[h]...)
			case 1: // unlink
				hp, linked := hashOf[pos]
				if !linked {
					continue
				}
				c.Unlink(pos, hp)
				delete(hashOf, pos)
				model[hp] = slices.DeleteFunc(model[hp], func(q int32) bool { return int(q) == pos })
				if len(model[hp]) == 0 {
					delete(model, hp)
				}
			case 2: // grow, up to 2¹⁰ buckets
				if c.Buckets() < 1<<10 {
					c.grow(rehash)
				}
			case 3: // probe
				probe(h)
			}
			if c.n != len(hashOf) {
				t.Fatalf("chain counts %d positions, %d are linked", c.n, len(hashOf))
			}
		}
		found := map[int]bool{}
		for b := 0; b < c.Buckets(); b++ {
			for p := c.First(uint64(b)); p >= 0; p = c.Next(p) {
				if found[p] {
					t.Fatalf("position %d found twice", p)
				}
				found[p] = true
				if hashOf[p]&uint64(c.Buckets()-1) != uint64(b) {
					t.Fatalf("position %d in bucket %d, not its hash's", p, b)
				}
			}
		}
		if len(found) != len(hashOf) {
			t.Fatalf("%d positions found, %d linked", len(found), len(hashOf))
		}
		for h := range model {
			probe(h)
		}
	})
}
