package expr

import "testing"

// BenchmarkRemap is the rung of the planner's most frequent tree
// rewrite, over the tree that holds every node type: a mapping that
// moves nothing (column pruning that pruned nothing below this node),
// one that moves one column and one that moves all six. Read B/op and
// allocs/op: nothing, that leaf's ancestors, the tree.
func BenchmarkRemap(b *testing.B) {
	e := everyNode()
	for _, c := range []struct {
		name    string
		mapping []int
	}{
		{"identity", []int{0, 1, 2, 3, 4, 5}},
		{"one_leaf", []int{0, 1, 2, 7}},
		{"every_leaf", []int{6, 7, 8, 9, 10, 11}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Remap(e, c.mapping)
			}
		})
	}
}
