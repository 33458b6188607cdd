package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// Chrome trace-event format (the JSON array flavor): each complete
// segment becomes a ph:"X" event, each instantaneous annotation a ph:"i"
// event, and metadata events name the processes so Perfetto / chrome
// about://tracing shows one row group per node with one thread lane per
// box, link, or output. Timestamps are microseconds (float), which the
// format requires.

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace renders events as a Chrome trace-event JSON array, viewable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
func ChromeTrace(events []Event) []byte {
	type lane struct{ node, name string }
	pids := map[string]int{}
	tids := map[lane]int{}
	var out []chromeEvent

	pidOf := func(node string) int {
		if id, ok := pids[node]; ok {
			return id
		}
		id := len(pids) + 1
		pids[node] = id
		return id
	}
	tidOf := func(node, name string) int {
		l := lane{node, name}
		if id, ok := tids[l]; ok {
			return id
		}
		id := len(tids) + 1
		tids[l] = id
		return id
	}

	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Kind.String(),
			TS:   float64(ev.Start) / 1e3,
			PID:  pidOf(ev.Node),
			TID:  tidOf(ev.Node, ev.Name),
		}
		if ev.TraceID != 0 {
			ce.Args = map[string]any{"trace": ev.TraceID}
		}
		if ev.Replica != 0 {
			if ce.Args == nil {
				ce.Args = map[string]any{}
			}
			ce.Args["replica"] = ev.Replica
		}
		if ev.Kind == KindMark {
			ce.Ph, ce.S = "i", "p"
		} else {
			ce.Ph = "X"
			ce.Dur = float64(ev.Dur) / 1e3
		}
		out = append(out, ce)
	}

	// Metadata: stable process and thread names.
	nodes := make([]string, 0, len(pids))
	for n := range pids {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", PID: pids[n],
			Args: map[string]any{"name": n},
		})
	}
	lanes := make([]lane, 0, len(tids))
	for l := range tids {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].node != lanes[j].node {
			return lanes[i].node < lanes[j].node
		}
		return lanes[i].name < lanes[j].name
	})
	for _, l := range lanes {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pids[l.node], TID: tids[l],
			Args: map[string]any{"name": l.name},
		})
	}

	b, err := json.Marshal(out)
	if err != nil {
		return []byte("[]") // unreachable: all fields are marshalable
	}
	return b
}

// WriteChrome writes the Chrome trace-event JSON for events to w.
func WriteChrome(w io.Writer, events []Event) error {
	_, err := w.Write(ChromeTrace(events))
	return err
}
