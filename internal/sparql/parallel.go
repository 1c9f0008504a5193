package sparql

// Morsel-driven intra-query parallelism (DESIGN.md §10).
//
// The engine parallelizes the scan-heavy plan shapes the paper singles
// out as expensive (multi-hop traversals and triangle counting, Tables
// 5–9): the driving scan of a BGP is snapshotted and split into
// contiguous morsels, a small worker pool claims morsels from a shared
// counter (work stealing), and every worker runs the serial batch
// executor (vecExec) over its morsel — probing the shared, lazily built
// hash tables. Finished batches travel back to the coordinating
// goroutine in per-morsel channels and are merged strictly in morsel
// order, so the emitted row order is byte-identical to the serial
// executor's (or, for order-insensitive plans, fan in by completion).
//
// Workers honor the guard exactly like the serial path: every scanned
// row ticks the shared (atomic) guard, every batch step polls it, and
// the first violation from any worker latches and unwinds all of them.
// Workers read through the query's store view without locking again.
// Worker goroutines always exit before the driving operator returns —
// there is no detached work — which the leak-gauge tests assert via
// Engine.ParallelStats().ActiveWorkers and OpenCursors, and which keeps
// every read inside the view's lifetime.

import (
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

const (
	// morselsPerWorker cuts morsels finer than the worker count so
	// stragglers rebalance through the shared claim counter.
	morselsPerWorker = 4
	// tickBatchRows is how many scanned rows a hash-build worker
	// accumulates before ticking the shared guard in one tickN batch.
	tickBatchRows = 1024
)

// The fan-out thresholds are variables only so the reference
// differential can make morsels engage on its tiny stores.
var (
	// parallelScanMinRows is the minimum estimated size of a BGP's
	// driving scan before the executor fans it out to workers; below
	// it, snapshot + goroutine overhead dominates the work.
	parallelScanMinRows = 2048
	// parallelBFSMinFrontier is the path-search frontier width below
	// which expansion stays serial.
	parallelBFSMinFrontier = 64
)

// parallelStats are the engine's cumulative intra-query parallelism
// counters, surfaced through /stats and Engine.ParallelStats.
type parallelStats struct {
	queries       atomic.Int64 // queries that ran at least one parallel stage
	workers       atomic.Int64 // worker goroutines launched
	morsels       atomic.Int64 // morsels (scan partitions) executed
	hashBuilds    atomic.Int64 // partitioned hash-table builds
	activeWorkers atomic.Int64 // live worker goroutines (leak gauge)
}

// markParallel flags the current query as parallel (once) and records
// a worker-pool launch.
func (ec *execCtx) markParallel(workers, morsels int) {
	if ec.pstats == nil {
		return
	}
	if ec.parallelFlagged != nil && ec.parallelFlagged.CompareAndSwap(false, true) {
		ec.pstats.queries.Add(1)
	}
	ec.pstats.workers.Add(int64(workers))
	ec.pstats.morsels.Add(int64(morsels))
}

// workerEnter / workerExit bracket every worker goroutine for the
// active-worker leak gauge.
func (ec *execCtx) workerEnter() {
	if ec.pstats != nil {
		ec.pstats.activeWorkers.Add(1)
	}
}

func (ec *execCtx) workerExit() {
	if ec.pstats != nil {
		ec.pstats.activeWorkers.Add(-1)
	}
}

// acquireWorkers claims up to want worker slots from the query's budget
// without blocking; the caller must release what it got. Nested
// parallel stages (a path closure inside a BGP morsel, a sub-select)
// therefore degrade to serial execution instead of oversubscribing.
func (ec *execCtx) acquireWorkers(want int) int {
	if ec.slots == nil {
		return 0
	}
	got := 0
	for got < want {
		select {
		case ec.slots <- struct{}{}:
			got++
		default:
			return got
		}
	}
	return got
}

func (ec *execCtx) releaseWorkers(n int) {
	for i := 0; i < n; i++ {
		<-ec.slots
	}
}

// snapshot materializes the rows matching p (restricted to the
// dataset's models where the restriction can be pushed into the
// pattern) as a cursor, polling the guard first so a tripped query
// never pays for the materialization. A multi-model subset cannot be
// pushed down; workers filter those rows via ec.visible.
func (ec *execCtx) snapshot(p store.Pattern) *store.Cursor {
	if !ec.guard.poll() {
		return nil
	}
	if ec.models != nil && ec.singleModel != store.NoID {
		p.M = ec.singleModel
	}
	return ec.view.Cursor(p)
}

// parallelHashBuild populates hs.table from a partitioned snapshot of
// the pattern's constant-bound scan. Each worker builds a partial table
// over its partition; partials are merged in partition order, so every
// bucket's row order equals the serially built bucket's. Budget ticks
// are batched through guard.tickN. Reports false when no worker slots
// were free (the caller then builds serially). Called with hs.mu held.
//
//pgrdf:locks hs.mu
func (ec *execCtx) parallelHashBuild(rp *resolvedPattern, hs *hashState, pst *profStage) bool {
	workers := ec.acquireWorkers(ec.parallelism)
	if workers < 2 {
		ec.releaseWorkers(workers)
		return false
	}
	defer ec.releaseWorkers(workers)
	cur := ec.snapshot(rp.constPattern())
	if cur == nil {
		return true // guard tripped; the empty table unwinds with it
	}
	parts := cur.Partitions(workers)
	ec.markParallel(workers, len(parts))
	if ec.pstats != nil {
		ec.pstats.hashBuilds.Add(1)
	}
	if pst != nil {
		pst.morsels.Add(int64(len(parts)))
	}
	partials := make([]map[[4]store.ID][]store.IDQuad, len(parts))
	var wg sync.WaitGroup
	for i, pc := range parts {
		wg.Add(1)
		go func(i int, pc *store.Cursor) {
			defer wg.Done()
			ec.workerEnter()
			defer ec.workerExit()
			defer pc.Close()
			m := make(map[[4]store.ID][]store.IDQuad)
			pending := 0
			for {
				q, more := pc.Next()
				if !more {
					break
				}
				if !ec.visible(q) {
					continue
				}
				pending++
				if pending >= tickBatchRows {
					if !ec.guard.tickN(pending) {
						return
					}
					if pst != nil {
						pst.ticks.Add(int64(pending))
					}
					pending = 0
				}
				if !rp.matchesGraphCtx(q) {
					continue
				}
				//pgrdfvet:ignore guardedby -- keyPos is frozen by buildHash (which holds hs.mu) before workers start
				key := hs.keyOf(q)
				m[key] = append(m[key], q)
			}
			if !ec.guard.tickN(pending) {
				return
			}
			if pst != nil {
				pst.ticks.Add(int64(pending))
			}
			partials[i] = m
		}(i, pc)
	}
	wg.Wait()
	for _, m := range partials {
		if m == nil {
			continue // worker aborted: the guard has latched, the query unwinds
		}
		for k, rows := range m {
			hs.table[k] = append(hs.table[k], rows...)
		}
	}
	return true
}
