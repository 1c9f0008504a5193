package store

import "testing"

// Raw scan kernels: per-row callback dispatch vs batched runs over the
// same index. The delta is pure iteration overhead — no binding or
// query machinery on top. Run via `make bench-micro`.

func benchScanStore(b *testing.B) *Store {
	s := partitionTestStore(b, 20000)
	s.Compact()
	return s
}

func BenchmarkScanRow(b *testing.B) {
	s := benchScanStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Scan(AnyPattern(), func(q IDQuad) bool {
			n++
			return true
		})
		if n == 0 {
			b.Fatal("empty scan")
		}
	}
}

func BenchmarkScanBatch(b *testing.B) {
	s := benchScanStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		scanBatch(s, AnyPattern(), DefaultBatchRows, func(run []IDQuad) bool {
			n += len(run)
			return true
		})
		if n == 0 {
			b.Fatal("empty scan")
		}
	}
}
