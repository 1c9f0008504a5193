package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// TestConcurrentReadersAndWriters exercises the store under parallel
// load: four writers inserting disjoint quads while four readers scan.
// Run with -race to check the locking discipline.
func TestConcurrentReadersAndWriters(t *testing.T) {
	s := New()
	// Seed some data so scans have work.
	var seed []rdf.Quad
	for i := 0; i < 200; i++ {
		seed = append(seed, quad(fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%5), fmt.Sprintf("o%d", i%20), ""))
	}
	if _, err := s.Load("m", seed); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := quad(fmt.Sprintf("w%d-s%d", w, i), "p0", "o0", "")
				if _, err := s.Insert("m", q); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%3 == 0 {
					if _, err := s.Delete("m", q); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := AnyPattern()
				p.P = s.Dict().Lookup(iri("p0"))
				n := 0
				s.Scan(p, func(IDQuad) bool { n++; return true })
				if n == 0 {
					t.Error("scan found nothing despite seeded data")
					return
				}
				v := s.ReadView()
				_ = v.EstimateCount(p)
				v.Release()
				_, _ = s.Stats()
			}
		}()
	}
	wg.Wait()

	// Final consistency: count w-prefixed survivors.
	s.Compact()
	survivors := 0
	s.Scan(AnyPattern(), func(q IDQuad) bool {
		if len(s.Dict().Term(q.S).Value) > len("http://x/") && s.Dict().Term(q.S).Value[9] == 'w' {
			survivors++
		}
		return true
	})
	// Each writer inserted 200, deleted ~67.
	want := 4 * (200 - 67)
	if survivors != want {
		t.Errorf("survivors = %d, want %d", survivors, want)
	}
}

func TestConcurrentInterning(t *testing.T) {
	d := NewDict()
	var wg sync.WaitGroup
	ids := make([][]ID, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[g] = make([]ID, 100)
			for i := 0; i < 100; i++ {
				ids[g][i] = d.Intern(rdf.NewIRI(fmt.Sprintf("http://t/%d", i)))
			}
		}()
	}
	wg.Wait()
	// All goroutines must agree on every term's ID.
	for g := 1; g < 8; g++ {
		for i := 0; i < 100; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got different ID for term %d", g, i)
			}
		}
	}
	if d.Len() != 100 {
		t.Errorf("dict has %d terms, want 100", d.Len())
	}
}
