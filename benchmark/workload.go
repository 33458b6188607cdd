package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stream"
)

// Every workload reads one input stream in(K, V, T) and every query is a
// linear chain of boxes, so a topology is a list of nodes, each a list of
// boxes. The same description is rendered as the JSON file auroranode
// loads and as the query.Network the in-process engine ledger replays.

type boxDef struct {
	id     string
	kind   string
	params map[string]string
}

type nodeDef struct {
	id     string
	input  string // inbound stream name
	output string // outbound stream name, routed to the next node or the sink
	boxes  []boxDef
}

// The operators every workload is assembled from. The constants are chosen
// so each box does real work: the head filter drops 5%, the two maps
// change V, and the tail filter of compute_sat drops another 3%.
var (
	boxHeadFilter = boxDef{kind: "filter", params: map[string]string{"predicate": "V < 95"}}
	boxMapTriple  = boxDef{kind: "map", params: map[string]string{"exprs": "K=K; V=(V * 3); T=T"}}
	boxMapShift   = boxDef{kind: "map", params: map[string]string{"exprs": "K=K; V=(V - 6); T=T"}}
	boxTailFilter = boxDef{kind: "filter", params: map[string]string{"predicate": "(V > 0) && (K >= 0)"}}
	boxTumbleMaxT = boxDef{kind: "tumble", params: map[string]string{"agg": "max", "on": "T", "groupby": "K"}}
)

func chain(boxes ...boxDef) []boxDef {
	out := make([]boxDef, len(boxes))
	for i, b := range boxes {
		b.id = fmt.Sprintf("b%d", i)
		out[i] = b
	}
	return out
}

// inSchemaFields is the schema of every inter-node stream: the maps keep
// the three columns, so n2's input has the same shape as the source's.
var inSchemaFields = []stream.Field{
	{Name: "K", Kind: stream.KindInt},
	{Name: "V", Kind: stream.KindInt},
	{Name: "T", Kind: stream.KindInt},
}

// network builds the node's piece as an in-process query network.
func (n nodeDef) network() (*query.Network, error) {
	b := query.NewBuilder(n.id)
	for i, bx := range n.boxes {
		b.AddBox(bx.id, op.Spec{Kind: bx.kind, Params: bx.params})
		if i > 0 {
			b.Connect(n.boxes[i-1].id, bx.id)
		}
	}
	schema, err := stream.NewSchema(n.input, inSchemaFields...)
	if err != nil {
		return nil, err
	}
	b.BindInput(n.input, schema, n.boxes[0].id, 0)
	b.BindOutput(n.output, n.boxes[len(n.boxes)-1].id, 0, nil)
	return b.Build()
}

// networkJSON renders the node's piece in the file format of
// `auroranode -network`.
func (n nodeDef) networkJSON() ([]byte, error) {
	type field struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	}
	type box struct {
		ID     string            `json:"id"`
		Kind   string            `json:"kind"`
		Params map[string]string `json:"params"`
	}
	type arc struct {
		From string `json:"from"`
		To   string `json:"to"`
	}
	type input struct {
		Name   string  `json:"name"`
		Schema []field `json:"schema"`
		Box    string  `json:"box"`
		Port   int     `json:"port"`
	}
	type output struct {
		Name string `json:"name"`
		Box  string `json:"box"`
		Port int    `json:"port"`
	}
	doc := struct {
		Name    string   `json:"name"`
		Boxes   []box    `json:"boxes"`
		Arcs    []arc    `json:"arcs"`
		Inputs  []input  `json:"inputs"`
		Outputs []output `json:"outputs"`
	}{Name: n.id}
	for i, bx := range n.boxes {
		doc.Boxes = append(doc.Boxes, box{ID: bx.id, Kind: bx.kind, Params: bx.params})
		if i > 0 {
			doc.Arcs = append(doc.Arcs, arc{From: n.boxes[i-1].id + ":0", To: bx.id + ":0"})
		}
	}
	var fields []field
	for _, f := range inSchemaFields {
		fields = append(fields, field{Name: f.Name, Kind: f.Kind.String()})
	}
	doc.Inputs = []input{{Name: n.input, Schema: fields, Box: n.boxes[0].id}}
	doc.Outputs = []output{{Name: n.output, Box: n.boxes[len(n.boxes)-1].id}}
	return json.MarshalIndent(doc, "", "  ")
}

// phaseDef is one load shape applied to a running cluster.
type phaseDef struct {
	name     string
	open     bool    // open loop (Poisson schedule) or closed loop (credit)
	rate     float64 // open loop: tuples per second
	trainLen int     // tuples per source message
	inflight int     // closed loop: most expected outputs awaiting the sink
	share    float64 // share of -seconds this phase measures
}

// workload is one row of the benchmark: a topology, a key function, the
// load phases, and which phase each end-to-end metric is read from.
type workload struct {
	name    string
	nodes   []nodeDef // upstream first; the last routes to the sink
	durable bool      // nodes run with -data-dir
	tumble  bool      // sink tuples are (K, max T), not (K, V, T)
	keyOf   func(seq uint64) int64
	phases  []phaseDef
	// latPhase and tputPhase index phases: latency_* is read from the
	// first, throughput_ktps and cpu_us_per_tuple from the second.
	latPhase, tputPhase int
}

const sinkID, srcID = "sink", "src"

func edgeNodes() []nodeDef {
	return []nodeDef{
		{id: "n1", input: "in", output: "mid", boxes: chain(boxHeadFilter, boxMapTriple)},
		{id: "n2", input: "mid", output: "out", boxes: chain(boxMapShift)},
	}
}

func workloads() []*workload {
	key16 := func(seq uint64) int64 { return int64(seq % 16) }
	return []*workload{
		{
			name:  "edge_sat",
			nodes: edgeNodes(), keyOf: key16,
			phases: []phaseDef{{name: "closed", trainLen: 64, inflight: 4096, share: 1}},
		},
		{
			name:  "edge_idle",
			nodes: edgeNodes(), keyOf: key16,
			phases: []phaseDef{{name: "open", open: true, rate: 5000, trainLen: 1, share: 1}},
		},
		{
			name:  "durable",
			nodes: edgeNodes(), keyOf: key16, durable: true,
			phases: []phaseDef{
				{name: "open", open: true, rate: 1000, trainLen: 1, share: 0.4},
				{name: "closed", trainLen: 16, inflight: 512, share: 0.6},
			},
			latPhase: 0, tputPhase: 1,
		},
		{
			name: "compute_sat",
			nodes: []nodeDef{{id: "n1", input: "in", output: "out",
				boxes: chain(boxHeadFilter, boxMapTriple, boxMapShift, boxTailFilter, boxTumbleMaxT)}},
			tumble: true,
			// Groups are offset by half a train against the 256-tuple source
			// trains, so the tuple that closes a window travels in the same
			// message as the window's last contributing tuples: output
			// latency then excludes the wait for the next message.
			keyOf:  func(seq uint64) int64 { return int64((seq + 128) / 256) },
			phases: []phaseDef{{name: "closed", trainLen: 256, inflight: 64, share: 1}},
		},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// warmup is the unmeasured run-in before the first measured phase: long
// enough for the Go runtimes of the nodes to settle, short enough that
// the contract's total time holds.
func warmup(measured float64) time.Duration { return secs(min(measured/6, 3)) }

// secs converts a count of seconds.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
