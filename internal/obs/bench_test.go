package obs

import (
	"context"
	"testing"
)

// benchmarkStartSpan is the span bookkeeping one instrumented call site
// pays: start, one attribute, end. The parent context is renewed every
// 64 spans — about one statement's worth — so that a traced root's child
// list does not grow with b.N.
func benchmarkStartSpan(b *testing.B, statement func() context.Context) {
	b.ReportAllocs()
	var ctx context.Context
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			ctx = statement()
		}
		_, sp := StartSpan(ctx, SpanExec, "op")
		sp.SetInt("rows", 1)
		sp.End()
	}
}

func BenchmarkStartSpanOff(b *testing.B) { benchmarkStartSpan(b, context.Background) }

func BenchmarkStartSpanOn(b *testing.B) {
	benchmarkStartSpan(b, func() context.Context {
		ctx, _ := StartSpan(WithTrace(context.Background(), NewTrace("bench")), SpanQuery, "q")
		return ctx
	})
}
