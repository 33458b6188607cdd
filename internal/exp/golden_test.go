package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<ID>.golden from the current tables")

// goldenIDs are the experiments whose scale-0.1 tables are deterministic:
// virtual-time netsim and fixed seeds, no wall-clock cell. E01, E02, E18,
// E18B, E19, E21 and E22 print measured wall time or throughput and are
// left out.
var goldenIDs = map[string]bool{
	"E03": true, "E04": true, "E05": true, "E06": true, "E07": true,
	"E08": true, "E09": true, "E10": true, "E11": true, "E12": true,
	"E13": true, "E14": true, "E15": true, "E16": true, "E20": true,
	"A01": true, "A02": true,
}

// TestGoldenTables pins the virtual-time experiment tables byte for byte:
// an engine change that moves any modeled timestamp, queue high-water mark
// or delivery count shows up here as a diff. Regenerate with
// `go test ./internal/exp -run TestGoldenTables -update` only when a table
// is meant to change.
func TestGoldenTables(t *testing.T) {
	for _, e := range Registry() {
		if !goldenIDs[e.ID] {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			got := e.Run(0.1).String()
			path := filepath.Join("testdata", e.ID+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("table differs from %s\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}
