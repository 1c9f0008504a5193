package sparql

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

// TestQueryDoesNotWedgeBehindWriter is the serve-mixed deadlock
// regression: a join's nested scan must not take the store's read lock
// a second time, because sync.RWMutex queues a new reader behind a
// waiting writer. A two-pattern COUNT over a 300-edge chain runs with
// every scanned row stalled for 1ms; 30ms in, a Store.Insert starts
// waiting for the write lock. The query must still finish, and the
// insert after it.
func TestQueryDoesNotWedgeBehindWriter(t *testing.T) {
	st := store.New()
	follows := rdf.NewIRI("http://pg/r/follows")
	v := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)) }
	var chain []rdf.Quad
	for i := 0; i < 300; i++ {
		chain = append(chain, rdf.Quad{S: v(i), P: follows, O: v(i + 1)})
	}
	if _, err := st.Load("net", chain); err != nil {
		t.Fatal(err)
	}
	fi := store.NewFaultInjector()
	fi.StallScans(1, time.Millisecond)
	st.SetFaultInjector(fi)
	e := NewEngine(st)
	e.Parallelism = 1

	type result struct {
		res *Results
		err error
	}
	queried := make(chan result, 1)
	go func() {
		res, err := e.Query("", testPrologue+`SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`)
		queried <- result{res, err}
	}()
	time.Sleep(30 * time.Millisecond)
	inserted := make(chan error, 1)
	go func() {
		_, err := st.Insert("net", rdf.Quad{S: v(1000), P: follows, O: v(1001)})
		inserted <- err
	}()

	select {
	case r := <-queried:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if got := r.res.Rows[0][0].Value; got != "299" {
			t.Errorf("count = %s, want 299", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query wedged: a nested scan is waiting for the read lock behind the writer")
	}
	select {
	case err := <-inserted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("insert never got the write lock")
	}
}
