package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rdf"
)

// collectScan drains a row scan into a slice.
func collectScan(s *Store, p Pattern) []IDQuad {
	var out []IDQuad
	s.Scan(p, func(q IDQuad) bool {
		out = append(out, q)
		return true
	})
	return out
}

// scanBatch runs one batched scan through a read view.
func scanBatch(s *Store, p Pattern, max int, fn func([]IDQuad) bool) {
	v := s.ReadView()
	defer v.Release()
	v.ScanBatch(p, max, fn)
}

// collectScanBatch drains a batched scan, copying each run (the runs
// are only valid during the callback).
func collectScanBatch(s *Store, p Pattern, max int) []IDQuad {
	var out []IDQuad
	scanBatch(s, p, max, func(run []IDQuad) bool {
		out = append(out, run...)
		return true
	})
	return out
}

func quadsEqual(t *testing.T, label string, got, want []IDQuad) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestScanBatchMatchesScan drives a randomized mutation workload
// (inserts, deletes, bulk loads, compactions — so the store passes
// through delta-only, tombstoned and compacted states) and checks after
// every burst that ScanBatch visits exactly the rows Scan visits, in
// the same order, for random patterns and batch sizes.
func TestScanBatchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New()
	randQuad := func() rdf.Quad {
		g := ""
		if rng.Intn(2) == 0 {
			g = fmt.Sprintf("g%d", rng.Intn(3))
		}
		return quad(
			fmt.Sprintf("s%d", rng.Intn(10)),
			fmt.Sprintf("p%d", rng.Intn(4)),
			fmt.Sprintf("o%d", rng.Intn(10)),
			g)
	}
	for step := 0; step < 300; step++ {
		switch rng.Intn(10) {
		case 0:
			batch := make([]rdf.Quad, rng.Intn(30))
			for i := range batch {
				batch[i] = randQuad()
			}
			if _, err := s.Load("m", batch); err != nil {
				t.Fatal(err)
			}
		case 1, 2:
			if _, err := s.Delete("m", randQuad()); err != nil {
				t.Fatal(err)
			}
		case 3:
			s.Compact()
		default:
			if _, err := s.Insert("m", randQuad()); err != nil {
				t.Fatal(err)
			}
		}
		if step%15 != 14 {
			continue
		}
		pat := AnyPattern()
		if rng.Intn(2) == 0 {
			pat.P = s.Dict().Lookup(iri(fmt.Sprintf("p%d", rng.Intn(4))))
		}
		if rng.Intn(3) == 0 {
			pat.S = s.Dict().Lookup(iri(fmt.Sprintf("s%d", rng.Intn(10))))
		}
		want := collectScan(s, pat)
		for _, max := range []int{1, 3, 64, DefaultBatchRows} {
			got := collectScanBatch(s, pat, max)
			quadsEqual(t, fmt.Sprintf("step %d max %d", step, max), got, want)
		}
		// max <= 0 falls back to the default batch size.
		quadsEqual(t, fmt.Sprintf("step %d default", step), collectScanBatch(s, pat, 0), want)
	}
}

// TestScanBatchEarlyStop checks that returning false from the batch
// callback stops the scan without visiting the delta tail.
func TestScanBatchEarlyStop(t *testing.T) {
	s := partitionTestStore(t, 500)
	// Leave rows in the delta buffer.
	if _, err := s.Insert("m", quad("zzz", "zzp", "zzo", "")); err != nil {
		t.Fatal(err)
	}
	calls, rows := 0, 0
	scanBatch(s, AnyPattern(), 64, func(run []IDQuad) bool {
		calls++
		rows += len(run)
		return calls < 2
	})
	if calls != 2 {
		t.Fatalf("callback ran %d times, want 2", calls)
	}
	if rows != 128 {
		t.Fatalf("saw %d rows before stop, want 128", rows)
	}
}

// TestScanRangeBatchCoversPartitions checks that walking the morsels of
// Index.Partitions with ScanRangeBatch reproduces the index's row scan
// exactly, tombstones skipped, for every batch size.
func TestScanRangeBatchCoversPartitions(t *testing.T) {
	s := partitionTestStore(t, 2000)
	// Tombstone some base rows by deleting post-compaction.
	s.Compact()
	for i := 0; i < 40; i++ {
		if _, err := s.Delete("m", rdf.Quad{
			S: iri(fmt.Sprintf("n%d", i%257)),
			P: iri(fmt.Sprintf("p%d", i%7)),
			O: iri(fmt.Sprintf("n%d", (i*31)%257)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	p := AnyPattern()
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix := s.chooseIndexLocked(p)
	var want []IDQuad
	ix.Scan(p, func(q IDQuad) bool {
		if _, gone := s.dead[q]; !gone {
			want = append(want, q)
		}
		return true
	})
	for _, nparts := range []int{1, 3, 8} {
		for _, max := range []int{1, 7, 256} {
			var got []IDQuad
			for _, r := range ix.Partitions(p, nparts) {
				if !ix.ScanRangeBatch(r, p, s.dead, max, func(run []IDQuad) bool {
					if len(run) == 0 || len(run) > max {
						t.Fatalf("run of %d rows with max %d", len(run), max)
					}
					got = append(got, run...)
					return true
				}) {
					t.Fatal("unexpected early stop")
				}
			}
			quadsEqual(t, fmt.Sprintf("parts %d max %d", nparts, max), got, want)
		}
	}
}

// TestCursorNextBatch checks NextBatch against Next on a twin cursor:
// same rows, same order, for several batch sizes, and nil at
// exhaustion and after Close.
func TestCursorNextBatch(t *testing.T) {
	s := partitionTestStore(t, 1100)
	for _, max := range []int{1, 13, 512, DefaultBatchRows} {
		ref := s.Cursor(AnyPattern())
		cur := s.Cursor(AnyPattern())
		var want, got []IDQuad
		for {
			q, ok := ref.Next()
			if !ok {
				break
			}
			want = append(want, q)
		}
		for {
			run := cur.NextBatch(max)
			if run == nil {
				break
			}
			if len(run) > max {
				t.Fatalf("run of %d rows with max %d", len(run), max)
			}
			got = append(got, run...)
		}
		quadsEqual(t, fmt.Sprintf("max %d", max), got, want)
		if run := cur.NextBatch(max); run != nil {
			t.Fatalf("NextBatch after exhaustion = %d rows, want nil", len(run))
		}
		ref.Close()
		cur.Close()
		if run := cur.NextBatch(max); run != nil {
			t.Fatalf("NextBatch after Close = %d rows, want nil", len(run))
		}
	}
	if n := s.OpenCursors(); n != 0 {
		t.Fatalf("open cursors = %d, want 0", n)
	}
}

// TestScanBatchUnderFaultInjector checks that the batched scan
// degrades to the per-row path when an injector is installed: the
// injector observes every row, and the visited rows stay identical.
func TestScanBatchUnderFaultInjector(t *testing.T) {
	s := faultTestStore(t, 300)
	want := collectScan(s, AnyPattern())
	fi := NewFaultInjector()
	s.SetFaultInjector(fi)
	defer s.SetFaultInjector(nil)
	got := collectScanBatch(s, AnyPattern(), 64)
	quadsEqual(t, "fault path", got, want)
	if fi.Scanned() != int64(len(want)) {
		t.Fatalf("injector observed %d rows, want %d", fi.Scanned(), len(want))
	}
	// Early stop through the fault bridge.
	calls := 0
	scanBatch(s, AnyPattern(), 64, func(run []IDQuad) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("callback ran %d times after stop, want 1", calls)
	}
}
