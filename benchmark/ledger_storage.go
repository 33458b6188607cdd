package main

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
)

// storageCosts prices the durable path on the work-dir filesystem.
type storageCosts struct {
	appendSync   cost // Log.Append of a 1-tuple frame, fsync per append: a durable route today
	appendNoSync cost // the same append without the fsync
	sync         cost // one Sync after 64 unsynced appends: what a group commit would pay per group
	checkpoint   cost // SaveCheckpoint: write, fsync, rename
}

func ledgerStorage(in ledgerInput) (storageCosts, error) {
	var c storageCosts
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return c, err
	}
	defer os.RemoveAll(in.dir)
	frame := func(i int) transport.Msg {
		k := i % len(in.tuples)
		return transport.Msg{Stream: "n2/mid", Kind: transport.KindData,
			BaseSeq: in.tuples[k].Seq, Tuples: in.tuples[k : k+1]}
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	synced, err := storage.OpenLog(filepath.Join(in.dir, "synced"), storage.LogConfig{})
	if err != nil {
		return c, err
	}
	defer synced.Close()
	i := 0
	c.appendSync = timeOps(2*in.budget, 8, func(n int) {
		for ; n > 0; n-- {
			note(synced.Append(frame(i)))
			i++
		}
	})

	// SyncEvery this large never triggers; Sync is called by hand below.
	unsynced, err := storage.OpenLog(filepath.Join(in.dir, "unsynced"), storage.LogConfig{SyncEvery: 1 << 30})
	if err != nil {
		return c, err
	}
	defer unsynced.Close()
	c.appendNoSync = timeOps(in.budget, 1024, func(n int) {
		for ; n > 0; n-- {
			note(unsynced.Append(frame(i)))
			i++
		}
	})

	// Only the Sync is on the clock; the 64 appends before it are not.
	var syncWall, syncCPU int64
	var syncs int
	for start := time.Now(); time.Since(start) < 2*in.budget; syncs++ {
		for k := 0; k < 64; k++ {
			note(unsynced.Append(frame(i)))
			i++
		}
		cpu0, t0 := selfCPUNs(), time.Now()
		note(unsynced.Sync())
		syncWall += int64(time.Since(t0))
		syncCPU += selfCPUNs() - cpu0
	}
	c.sync = cost{wallNs: float64(syncWall) / float64(syncs), cpuNs: float64(syncCPU) / float64(syncs)}

	ckPath := filepath.Join(in.dir, "checkpoint.json")
	var seq uint64
	c.checkpoint = timeOps(2*in.budget, 8, func(n int) {
		for ; n > 0; n-- {
			seq += 32
			note(storage.SaveCheckpoint(ckPath, storage.NodeCheckpoint{
				SavedAt: time.Now().UnixNano(), DedupRecv: map[string]uint64{"n1/mid": seq},
			}))
		}
	})
	return c, firstErr
}
