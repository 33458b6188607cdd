//go:build poolcheck

package stream

// PoolCheck reports whether this build carries the poolcheck tag (see
// poolcheck_off.go).
const PoolCheck = true
