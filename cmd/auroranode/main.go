// auroranode runs one Aurora server as an OS process speaking the
// multiplexed TCP transport of §4.3, so a query network can be partitioned
// across real processes the same way Cluster partitions it across
// simulated ones.
//
// The node loads its piece of the query network from a JSON file, accepts
// tuples for its input streams from upstream peers (or generates them with
// -gen), and routes its outputs either to downstream peers or to stdout.
//
// Example — a two-process chain:
//
//	auroranode -id n2 -listen 127.0.0.1:7002 -network tail.json -print out &
//	auroranode -id n1 -listen 127.0.0.1:7001 -network head.json \
//	    -peer n2=127.0.0.1:7002 -route mid=n2/mid \
//	    -gen sensors=in -gen-count 10000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	netpkg "net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/node"
	"repro/internal/op"
	"repro/internal/qos"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wgen"
)

// buildVersion identifies the binary in /metrics; override with
//
//	go build -ldflags "-X main.buildVersion=v1.2.3" ./cmd/auroranode
var buildVersion = "dev"

// netFile is the JSON description of one node's piece of a query network.
type netFile struct {
	Name  string `json:"name"`
	Boxes []struct {
		ID     string            `json:"id"`
		Kind   string            `json:"kind"`
		Params map[string]string `json:"params"`
	} `json:"boxes"`
	Arcs []struct {
		From string `json:"from"` // "box:port"
		To   string `json:"to"`
	} `json:"arcs"`
	Inputs []struct {
		Name   string `json:"name"`
		Schema []struct {
			Name string `json:"name"`
			Kind string `json:"kind"` // int, float, string, bool
		} `json:"schema"`
		Box  string `json:"box"`
		Port int    `json:"port"`
	} `json:"inputs"`
	Outputs []struct {
		Name string `json:"name"`
		Box  string `json:"box"`
		Port int    `json:"port"`
		// Optional latency QoS graph (§7.1): utility 1 up to good ms,
		// linear to 0 at zero ms. Both must be set; enables delivered-QoS
		// attribution and the -slo plane's cliff forecasting.
		QoSGoodMs float64 `json:"qos_good_ms"`
		QoSZeroMs float64 `json:"qos_zero_ms"`
	} `json:"outputs"`
}

func parseKind(s string) (stream.Kind, error) {
	for k := stream.KindInt; k <= stream.KindBool; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return stream.KindInvalid, fmt.Errorf("unknown kind %q", s)
}

func parsePort(s string) (query.Port, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return query.Port{Box: s}, nil
	}
	var port int
	if _, err := fmt.Sscanf(s[i+1:], "%d", &port); err != nil {
		return query.Port{}, fmt.Errorf("bad port in %q", s)
	}
	return query.Port{Box: s[:i], Port: port}, nil
}

func loadNetwork(path string) (*query.Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	net, err := parseNetwork(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return net, nil
}

// parseNetwork builds the query network a netFile describes.
func parseNetwork(data []byte) (*query.Network, error) {
	var nf netFile
	if err := json.Unmarshal(data, &nf); err != nil {
		return nil, err
	}
	b := query.NewBuilder(nf.Name)
	for _, box := range nf.Boxes {
		b.AddBox(box.ID, op.Spec{Kind: box.Kind, Params: box.Params})
	}
	for _, a := range nf.Arcs {
		from, err := parsePort(a.From)
		if err != nil {
			return nil, err
		}
		to, err := parsePort(a.To)
		if err != nil {
			return nil, err
		}
		b.ConnectPorts(from, to, false)
	}
	for _, in := range nf.Inputs {
		fields := make([]stream.Field, len(in.Schema))
		for i, f := range in.Schema {
			k, err := parseKind(f.Kind)
			if err != nil {
				return nil, err
			}
			fields[i] = stream.Field{Name: f.Name, Kind: k}
		}
		schema, err := stream.NewSchema(in.Name, fields...)
		if err != nil {
			return nil, err
		}
		b.BindInput(in.Name, schema, in.Box, in.Port)
	}
	for _, o := range nf.Outputs {
		var spec *qos.Spec
		if o.QoSGoodMs > 0 && o.QoSZeroMs > o.QoSGoodMs {
			spec = &qos.Spec{Latency: qos.DefaultLatency(o.QoSGoodMs*1e6, o.QoSZeroMs*1e6)}
		}
		b.BindOutput(o.Name, o.Box, o.Port, spec)
	}
	return b.Build()
}

// checkSerial rejects the retired in-process parallelism flags: a node
// runs its boxes on one run loop, and -workers and -autosplit remain only
// so that existing command lines with their serial values keep working.
func checkSerial(workers, autosplit int) error {
	if workers != 0 && workers != 1 {
		return fmt.Errorf("-workers %d: a node runs its boxes on one run loop; scale out by running more nodes and spreading the network over them (§5), and leave -workers at 0", workers)
	}
	if autosplit != 0 {
		return fmt.Errorf("-autosplit %d: runtime autosplit is gone; split a hot box across nodes instead (§5), and leave -autosplit at 0", autosplit)
	}
	return nil
}

// multiFlag collects repeated -flag key=value pairs.
type multiFlag map[string]string

func (m multiFlag) String() string { return fmt.Sprint(map[string]string(m)) }
func (m multiFlag) Set(s string) error {
	i := strings.IndexByte(s, '=')
	if i <= 0 {
		return fmt.Errorf("want key=value, got %q", s)
	}
	m[s[:i]] = s[i+1:]
	return nil
}

func main() {
	var (
		id       = flag.String("id", "node", "node identity")
		listen   = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		netPath  = flag.String("network", "", "query network JSON file (required)")
		print    = flag.String("print", "", "output stream to print to stdout")
		genSpec  = flag.String("gen", "", "self-generate workload: sensors=<input> | quotes=<input> | flows=<input>")
		genN     = flag.Int("gen-count", 10000, "tuples to generate")
		genRate  = flag.Float64("gen-rate", 10000, "generated tuples per second")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")
		httpAddr = flag.String("http", "", "telemetry HTTP listen address (/metrics, /trace, /healthz, /stats, /loadmap, /links); empty disables")
		traceN   = flag.Int("trace", 0, "trace every Nth locally ingested tuple (0 disables tracing)")
		traceBuf = flag.Int("trace-buf", 4096, "flight-recorder ring capacity")
		statsPer = flag.Duration("stats", 0, "statistics-plane sample period (0 disables the stats plane)")
		statsWin = flag.Int("stats-windows", 8, "windowed-store ring size per series")
		linkPing = flag.Duration("link-ping", time.Second, "peer-link keepalive period (0 disables pings and read-idle detection)")
		linkBuf  = flag.Int("link-buffer", 1024, "messages buffered per peer link across reconnects")
		haRoutes = flag.Bool("ha-routes", true, "frame routed outputs with the HA link protocol (sequence, retain, replay on reconnect, dedup downstream)")
		workers  = flag.Int("workers", 0, "retired: must be 0 or 1 (a node has one run loop; scale out with more nodes)")
		autoN    = flag.Int("autosplit", 0, "retired: must be 0 (split a hot box across nodes instead)")
		eventBuf = flag.Int("events-buf", 1024, "structured event journal ring capacity (0 disables the journal)")
		dataDir  = flag.String("data-dir", "", "durable state directory: output logs and connection-point spill land in segment files there, dedup + stats-plane state is checkpointed, and a restart recovers all of it (empty disables durability)")
		sloOn    = flag.Bool("slo", false, "enable the latency-SLO plane: per-output quantile sketches, tail attribution, and cliff forecasting (served at /latency and as Prometheus histograms)")
	)
	peers := multiFlag{}
	routeFlags := multiFlag{}
	flag.Var(peers, "peer", "peer id=host:port (repeatable)")
	flag.Var(routeFlags, "route", "output routing out=peer/stream (repeatable)")
	flag.Parse()

	if *netPath == "" {
		log.Fatal("-network is required")
	}
	if err := checkSerial(*workers, *autoN); err != nil {
		log.Fatal(err)
	}
	net, err := loadNetwork(*netPath)
	if err != nil {
		log.Fatalf("load network: %v", err)
	}
	// The output hook counts every output's deliveries for the -gen summary
	// and prints the -print stream.
	var outMu sync.Mutex
	delivered := map[string]uint64{}
	n, err := node.Open(node.Config{
		ID: *id, Listen: *listen, Network: net, Peers: peers, Routes: routeFlags,
		Output: func(name string, ts []stream.Tuple) {
			outMu.Lock()
			delivered[name] += uint64(len(ts))
			outMu.Unlock()
			if name == *print {
				for _, t := range ts {
					fmt.Println(t.String())
				}
			}
		},
		Quiet: *quiet, Trace: *traceN, TraceBuf: *traceBuf,
		Stats: *statsPer, StatsWindows: *statsWin,
		Link:      transport.LinkConfig{PingPeriod: *linkPing, BufferLimit: *linkBuf},
		HARoutes:  *haRoutes,
		EventsBuf: *eventBuf, DataDir: *dataDir, SLO: *sloOn,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer n.Close()

	// stopped flips once the generator has drained and the node is about
	// to exit: /healthz reports 503 "stopped" so scrapers and probes see
	// the node leave the cluster before the process goes away.
	var stopped atomic.Bool
	if *httpAddr != "" {
		ln, err := netpkg.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("telemetry listen: %v", err)
		}
		if !*quiet {
			log.Printf("telemetry on http://%s (/metrics /trace /events /healthz /stats /loadmap /links)", ln.Addr())
		}
		go http.Serve(ln, telemetry.NewHandler(telemetry.Config{
			Node:    *id,
			Engine:  n.Engine(),
			Plane:   n.Plane(),
			Links:   n.TCP(),
			Journal: n.Journal(),
			Version: buildVersion,
			Health: func() (bool, string) {
				if stopped.Load() {
					return false, "stopped"
				}
				return true, ""
			},
		}))
	}

	if *genSpec == "" {
		select {} // serve forever
	}
	i := strings.IndexByte(*genSpec, '=')
	if i <= 0 {
		log.Fatalf("bad -gen %q", *genSpec)
	}
	kind, input := (*genSpec)[:i], (*genSpec)[i+1:]
	arrival := wgen.NewPoissonArrival(*genRate, 1)
	var src wgen.Source
	switch kind {
	case "sensors":
		src = wgen.NewSensorSource(32, 1.2, []string{"cambridge", "boston"}, arrival, int64(*genN), 1)
	case "quotes":
		src = wgen.NewStockSource(16, arrival, int64(*genN), 1)
	case "flows":
		src = wgen.NewNetFlowSource(256, arrival, int64(*genN), 1)
	default:
		log.Fatalf("unknown generator %q", kind)
	}
	start := time.Now()
	count := 0
	train := make([]stream.Tuple, 1)
	for {
		t, gap, ok := src.Next()
		if !ok {
			break
		}
		time.Sleep(time.Duration(gap))
		count++
		train[0] = t
		n.Ingest(input, train)
	}
	n.Drain()
	stopped.Store(true)
	if !*quiet {
		outMu.Lock()
		log.Printf("generated %d tuples in %v; deliveries: %v",
			count, time.Since(start).Round(time.Millisecond), delivered)
		outMu.Unlock()
	}
	// Give routed messages a moment to flush before exiting; HA-framed
	// routes additionally wait (bounded) for their output logs to be
	// acknowledged empty, so a reconnect near the end loses nothing.
	flushDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(flushDeadline) && n.Outstanding() > 0 {
		time.Sleep(100 * time.Millisecond)
	}
	n.Checkpoint()
	time.Sleep(200 * time.Millisecond)
}
