package main

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/stream"
	"repro/internal/transport"
)

// transportCosts prices the transport layer per tuple, for messages of
// one tuple (today's node edge) and of 64 (a source train, and what a
// train-shaped edge would send).
type transportCosts struct {
	encode1, encode64 cost    // transport.Encode
	decode1, decode64 cost    // transport.DecodeInto
	tcp1, tcp64       cost    // saturated loopback: Send -> frame -> write -> read -> Decode -> handler
	onewayUs          float64 // idle loopback, one 1-tuple message, Send to handler, median
}

func ledgerTransport(in ledgerInput) (transportCosts, error) {
	var c transportCosts
	msg := func(n int) transport.Msg {
		return transport.Msg{Stream: in.w.nodes[0].input, Kind: transport.KindData,
			BaseSeq: 1, Tuples: in.tuples[:n]}
	}
	codec := func(n int) (enc, dec cost) {
		m := msg(n)
		var buf []byte
		enc = timeOps(in.budget, n, func(int) { buf = transport.Encode(buf[:0], m) })
		var into transport.Msg
		dec = timeOps(in.budget, n, func(int) {
			if _, err := transport.DecodeInto(&into, buf); err != nil {
				panic(err) // the bytes came from Encode one line up
			}
		})
		return enc, dec
	}
	c.encode1, c.decode1 = codec(1)
	c.encode64, c.decode64 = codec(64)

	var got, lastArrive atomic.Int64
	progress := make(chan struct{}, 1) // "got moved"; one pending signal is enough
	rx, err := transport.ListenTCP("ledger-rx", "127.0.0.1:0", func(_ string, m transport.Msg) {
		lastArrive.Store(time.Now().UnixNano())
		got.Add(int64(len(m.Tuples)))
		select {
		case progress <- struct{}{}:
		default:
		}
	})
	if err != nil {
		return c, err
	}
	defer rx.Close()
	tx, err := transport.ListenTCP("ledger-tx", "127.0.0.1:0", nil)
	if err != nil {
		return c, err
	}
	defer tx.Close()
	if err := tx.AddPeer("ledger-rx", rx.Addr()); err != nil {
		return c, err
	}
	deadline := time.Now().Add(startTimeout)
	for {
		if st, _ := tx.LinkState("ledger-rx"); st == transport.LinkEstablished {
			break
		}
		if time.Now().After(deadline) {
			return c, fmt.Errorf("ledger: loopback link did not come up")
		}
		time.Sleep(time.Millisecond)
	}

	// Two ticks in a row without progress is a stall of at least one
	// whole stallTimeout, whatever the ticker's phase when the wait began.
	stall := time.NewTicker(stallTimeout)
	defer stall.Stop()
	waitGot := func(target int64) error {
		seen, idleTicks := got.Load(), 0
		for got.Load() < target {
			select {
			case <-progress:
			case <-stall.C:
				if now := got.Load(); now != seen {
					seen, idleTicks = now, 0
				} else if idleTicks++; idleTicks == 2 {
					return fmt.Errorf("ledger: loopback receiver stalled")
				}
			}
		}
		return nil
	}

	// Saturated: a bounded window of messages in flight, as a closed loop
	// would keep it, so the sender's queue cannot grow.
	saturated := func(n int) (cost, error) {
		m := msg(n)
		const window = 128
		var err error
		c := timeOps(2*in.budget, n*window, func(int) {
			target := got.Load() + int64(n*window)
			for i := 0; i < window && err == nil; i++ {
				err = tx.Send("ledger-rx", m)
			}
			if err == nil {
				err = waitGot(target)
			}
		})
		return c, err
	}
	if c.tcp1, err = saturated(1); err != nil {
		return c, err
	}
	if c.tcp64, err = saturated(64); err != nil {
		return c, err
	}

	// Idle: one message at a time with a pause between, like edge_idle.
	one := []stream.Tuple{in.tuples[0]}
	var lat []int64
	for i := 0; i < 1000; i++ {
		before := got.Load()
		sent := time.Now().UnixNano()
		if err := tx.Send("ledger-rx", transport.Msg{Stream: "in", Kind: transport.KindData, Tuples: one}); err != nil {
			return c, err
		}
		if err := waitGot(before + 1); err != nil {
			return c, err
		}
		lat = append(lat, lastArrive.Load()-sent)
		time.Sleep(200 * time.Microsecond)
	}
	slices.Sort(lat)
	c.onewayUs = float64(quantile(lat, 0.5)) / 1e3
	return c, nil
}
