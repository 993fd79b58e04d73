package wire

import (
	"fmt"
	"testing"

	"gis/internal/types"
)

// BenchmarkDecodeFrame256 decodes one full msgRows frame of four-column
// rows, as the client does per frame of a shipped result.
func BenchmarkDecodeFrame256(b *testing.B) {
	rows := make([]types.Row, rowBatchSize)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 97)),
			types.NewFloat(float64(i) / 3), types.NewString(fmt.Sprintf("region-%d", i%8))}
	}
	frame := frameOf(rows)
	var batch []types.Row
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if batch, err = NewDecoder(frame).rowBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}
