package types

import (
	"fmt"
	"testing"
	"time"
)

// benchValues is one value of each kind a row usually carries, repeated:
// the mix the per-row operators hash, compare and copy.
func benchValues() []Value {
	vals := make([]Value, 0, 1024)
	for i := 0; len(vals) < cap(vals); i++ {
		vals = append(vals, NewInt(int64(i)*7919), NewFloat(float64(i)/3),
			NewString(fmt.Sprintf("cust-%06d", i)), NewTime(time.Unix(int64(i)*86400, int64(i))))
	}
	return vals
}

var (
	sinkU64 uint64
	sinkInt int
	sinkRow Row
)

func BenchmarkValueHash(b *testing.B) {
	vals := benchValues()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU64 = vals[i%len(vals)].Hash(sinkU64)
	}
}

func BenchmarkValueCompare(b *testing.B) {
	vals := benchValues()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Same kind four slots apart, so the payloads are compared.
		sinkInt += vals[i%len(vals)].Compare(vals[(i+4)%len(vals)])
	}
}

// BenchmarkRowClone copies an 8-column row: the cost every operator
// that must own its input pays, in time and in bytes.
func BenchmarkRowClone(b *testing.B) {
	row := Row(benchValues()[:8])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRow = row.Clone()
	}
}
