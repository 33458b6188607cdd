package exp

import (
	"fmt"
	"os"

	"repro/internal/chaos"
)

// E22Durability runs the process-restart fault harness (internal/chaos
// RunRestart): a sender with a disk-backed output log streams to a live
// consumer while the harness kills the entire sender process state at
// seed-chosen points and restarts it from its data directory. Each row is
// one schedule class; pass means all durability oracles held — every
// tuple whose Send returned was delivered exactly once (rebuilt from
// segment files and replayed through the normal resync path, with the
// consumer's dedup absorbing the overlap), the log drained, and no
// sequence holes remained. The recovered column counts log entries
// rebuilt from disk across restarts; suppressed counts the replay
// duplicates the consumer filtered, which is the price of conservative
// whole-segment truncation.
func E22Durability(scale float64) *Table {
	t := &Table{ID: "E22", Title: "durable restart recovery: kill/restart from segment logs vs the exactness oracles",
		Header: []string{"class", "seeds", "pass", "fail", "tuples", "lost", "dups", "restarts", "recovered", "replayed", "suppressed"}}

	tuples := scaled(600, scale)
	type class struct {
		name            string
		restarts, kills int
	}
	classes := []class{
		{"fault-free", 0, 0},
		{"restarts", 3, 0},
		{"restarts+conn-kills", 3, 2},
	}
	seeds := scaled(4, scale)
	if seeds < 1 {
		seeds = 1
	}

	totalFail := 0
	for _, c := range classes {
		var pass, fail, lost, dups, restarts, recovered int
		var replayed int64
		var suppressed uint64
		for seed := 1; seed <= seeds; seed++ {
			dir, err := os.MkdirTemp("", "e22-")
			if err != nil {
				panic(err)
			}
			r := chaos.RunRestart(chaos.RestartSchedule{
				Seed: int64(seed), Tuples: tuples,
				Restarts: c.restarts, Kills: c.kills, Dir: dir,
			})
			os.RemoveAll(dir)
			if r.Failed() {
				fail++
				t.Note("FAIL %s seed %d: %v", c.name, seed, r.Violations)
			} else {
				pass++
			}
			lost += r.Missing
			dups += r.Dups
			restarts += r.Restarts
			recovered += r.Recovered
			replayed += r.Replayed
			suppressed += r.Suppressed
		}
		totalFail += fail
		t.Add(c.name, seeds, pass, fail, seeds*tuples, lost, dups, restarts, recovered, replayed, suppressed)
	}

	t.Note(fmt.Sprintf("%d seeds/class, %d tuples/run; offered in trains of 1-4; SendTrain's return is the commit point (every entry fsynced)", seeds, tuples))
	if totalFail == 0 {
		t.Note("all schedules recovered with 0 lost and 0 duplicated tuples")
	}
	return t
}
