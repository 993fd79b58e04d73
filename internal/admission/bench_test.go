package admission

import "testing"

// BenchmarkAdmitRelease is admission's rung: one Admit and its Release on
// a controller that never queues or sheds (MaxInFlight 64, as the
// benchmark installs it) — unmetered, and under a memory quota, whose
// account is a field of the session: both make the session and nothing
// else. Read B/op and allocs/op.
func BenchmarkAdmitRelease(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"unmetered", Config{MaxInFlight: 64}},
		{"metered", Config{MaxInFlight: 64, MemQuota: 1 << 30}},
	} {
		b.Run(c.name, func(b *testing.B) {
			ctrl := New(c.cfg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, s, err := ctrl.Admit(bg, "")
				if err != nil {
					b.Fatal(err)
				}
				s.Release()
			}
		})
	}
}
