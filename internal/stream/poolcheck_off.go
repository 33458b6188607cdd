//go:build !poolcheck

package stream

// PoolCheck reports whether this build carries the poolcheck tag. In a
// poolcheck build every recycled Vals array and every scratch batch is
// filled with a poison value that panics at its next read, naming the
// site that gave it up; without the tag the checks compile away.
const PoolCheck = false
