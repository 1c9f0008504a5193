// Package walerrtest exercises the walerr analyzer.
package walerrtest

import (
	"fmt"

	"repro/internal/wal"
)

func bad(l *wal.Log, b wal.Batch) {
	l.Commit(b, nil)             // want "Log.Commit error discarded"
	l.Checkpoint(nil)            // want "Log.Checkpoint error discarded"
	l.CheckpointIncremental(nil) // want "Log.CheckpointIncremental error discarded"
	l.Sync()                     // want "Log.Sync error discarded"
	_ = l.Sync()                 // want "Log.Sync error assigned to _"
	defer l.Sync()               // want "Log.Sync error discarded by defer"
	go l.Checkpoint(nil)         // want "Log.Checkpoint error discarded by go statement"
}

func good(l *wal.Log, b wal.Batch) error {
	if err := l.Commit(b, nil); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	if err := l.Checkpoint(nil); err != nil {
		return err
	}
	if err := l.CheckpointIncremental(nil); err != nil {
		return err
	}
	err := l.Sync()
	// Close is exempt: the flush already happened via Sync above, and
	// teardown paths routinely defer it.
	defer l.Close()
	return err
}

func suppressed(l *wal.Log) {
	//pgrdfvet:ignore walerr -- test harness tears down a log whose disk is already gone
	l.Sync()
}

// The replication apply path: wal.ApplyBatch and wal.DecodeFrames are
// how a follower extends its copy of the leader's history, so a
// dropped error silently forks the replica. (The repl.Follower
// methods under the same rule are unexported; they are checked inside
// the repl package itself when pgrdfvet runs over ./...)
func applyPath(b wal.Batch, data []byte) {
	wal.ApplyBatch(nil, b)                // want "ApplyBatch error discarded"
	_, _, _ = wal.DecodeFrames(data, nil) // want "DecodeFrames error assigned to _"
	go wal.ApplyBatch(nil, b)             // want "ApplyBatch error discarded by go statement"
}

func applyPathGood(b wal.Batch, data []byte) error {
	if err := wal.ApplyBatch(nil, b); err != nil {
		return err
	}
	consumed, _, err := wal.DecodeFrames(data, nil)
	_ = consumed
	return err
}
