package main

import (
	"repro/internal/ha"
	"repro/internal/stream"
)

// haCosts prices the HA link protocol per routed tuple, with the wire
// replaced by a no-op so only the protocol's own work is timed.
type haCosts struct {
	send cost // LinkSender.Send (stamp, retain) plus an Ack (truncate) every 32
	recv cost // LinkReceiver.OnBatch of one tuple (dedup, ack cadence)
}

func ledgerHA(in ledgerInput) haCosts {
	var c haCosts
	var lastSeq uint64
	sender := ha.NewLinkSender(func(batch []stream.Tuple) error {
		lastSeq = batch[len(batch)-1].Seq
		return nil
	})
	c.send = timeOps(in.budget, len(in.tuples), func(int) {
		for i, t := range in.tuples {
			sender.Send(t)
			if i%32 == 31 {
				sender.Ack(lastSeq)
			}
		}
	})

	recv := ha.NewLinkReceiver(func(stream.Tuple) {}, func(uint64) {}, 32)
	var linkSeq uint64
	batch := make([]stream.Tuple, 1)
	c.recv = timeOps(in.budget, len(in.tuples), func(int) {
		for _, t := range in.tuples {
			linkSeq++
			t.Seq = linkSeq
			batch[0] = t
			recv.OnBatch(batch)
		}
	})
	return c
}
