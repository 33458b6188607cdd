package cql

import (
	"testing"

	"repro/internal/engine"
)

// FuzzCompile holds Compile to its contract on arbitrary query text: it
// returns a network or an error and never panics, and a network it
// returns runs — the engine builds it and drains a few tuples through it.
// Seeded with the queries of the table tests.
func FuzzCompile(f *testing.F) {
	for _, src := range []string{
		`SELECT * FROM readings WHERE reading > 25.0`,
		`SELECT * FROM readings`,
		`SELECT sensor, region FROM readings`,
		`SELECT cnt(reading) FROM readings GROUP BY sensor`,
		`SELECT avg(reading) FROM readings WHERE region == "cambridge" GROUP BY sensor`,
		`SELECT cnt(reading) FROM readings GROUP BY sensor, region`,
		`select * from readings where reading > 1.0`,
		`SELECT * FROM readings WHERE ((`,
		`SELECT cnt() FROM readings GROUP BY sensor`,
		`SELECT * FROM readings GROUP BY sensor extra junk here FROM`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		net, err := Compile("q", src, readings)
		if err != nil {
			return
		}
		e, err := engine.New(net, engine.Config{Clock: engine.NewVirtualClock(1)})
		if err != nil {
			return
		}
		for _, tp := range sample() {
			for in := range net.Inputs() {
				e.Ingest(in, tp.Clone())
			}
		}
		e.Drain()
	})
}
