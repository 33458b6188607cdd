//go:build !race

package transport

// raceEnabled reports whether the race detector instruments this build.
// Allocation pins that cross the engine skip under -race: sync.Pool
// randomly drops Puts there, so allocs/op is not meaningful.
const raceEnabled = false
