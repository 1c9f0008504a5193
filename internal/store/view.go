package store

// ReadView is a read-locked view of the store for one query
// evaluation. Store.ReadView takes the read lock once; until Release,
// writers wait and the view's methods read the indexes without locking
// again. A query must not take the lock a second time while it holds
// it: sync.RWMutex blocks a new RLock behind a waiting writer, so a
// nested scan would deadlock against any concurrent update.
//
// A view may be shared by goroutines the query starts (morsel workers),
// provided they all finish before Release. Release is called by the
// goroutine that took the view; it is idempotent.
type ReadView struct {
	s        *Store
	released bool
}

// ReadView takes the store's read lock and returns a view over it. The
// caller must call Release.
func (s *Store) ReadView() *ReadView {
	s.mu.RLock()
	return &ReadView{s: s}
}

// Release drops the view's read lock. Later calls are no-ops.
func (v *ReadView) Release() {
	if !v.released {
		v.released = true
		v.s.mu.RUnlock()
	}
}

// Version is Store.Version: constant for the life of the view.
func (v *ReadView) Version() uint64 { return v.s.Version() }

// Dict returns the store's dictionary (self-locking, never guarded by
// the store lock).
func (v *ReadView) Dict() *Dict { return v.s.dict }

// Scan is Store.Scan under the view's lock.
func (v *ReadView) Scan(p Pattern, fn func(IDQuad) bool) {
	//pgrdfvet:ignore guardedby -- the view holds s.mu.RLock from Store.ReadView until Release
	v.s.scanLocked(p, fn)
}

// ScanBatch calls fn with runs of at most max quads matching the
// pattern (max <= 0 means DefaultBatchRows), choosing the best index
// automatically. It visits exactly the rows Scan visits, in the same
// order: sorted index rows first (tombstones skipped), then the
// unmerged delta buffer. Index runs are zero-copy subslices valid only
// during the callback; delta rows are staged through a scratch buffer
// that is reused between callbacks, so fn must not retain its argument
// either way. fn returning false stops the scan.
//
// When a FaultInjector is installed the scan degrades to the row path
// internally (the injector observes individual rows), preserving
// per-row fault semantics at batch-call granularity.
func (v *ReadView) ScanBatch(p Pattern, max int, fn func([]IDQuad) bool) {
	//pgrdfvet:ignore guardedby -- the view holds s.mu.RLock from Store.ReadView until Release
	v.s.scanBatchLocked(p, max, fn)
}

// EstimateCount estimates the number of quads matching the pattern
// using the best index's bound-prefix range. It is an upper bound and
// costs O(log n) plus the unmerged delta.
func (v *ReadView) EstimateCount(p Pattern) int {
	//pgrdfvet:ignore guardedby -- the view holds s.mu.RLock from Store.ReadView until Release
	return v.s.estimateCountLocked(p)
}

// Cursor is Store.Cursor under the view's lock.
func (v *ReadView) Cursor(p Pattern) *Cursor {
	//pgrdfvet:ignore guardedby -- the view holds s.mu.RLock from Store.ReadView until Release
	return v.s.cursorLocked(p)
}

// ChooseIndexByBound returns the spec of the index that would serve a
// pattern whose bound columns are exactly cols: the index with the
// longest key prefix covered by the bound set, ties broken by creation
// order. Used for EXPLAIN-style plan reporting when concrete IDs are not
// yet known.
func (v *ReadView) ChooseIndexByBound(cols []Col) string {
	//pgrdfvet:ignore guardedby -- the view holds s.mu.RLock from Store.ReadView until Release
	return v.s.chooseIndexByBoundLocked(cols)
}
