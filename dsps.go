// Package dsps is a Go reproduction of "Scalable Distributed Stream
// Processing" (Cherniack et al., CIDR 2003): the Aurora single-node
// stream processor, the Aurora* intra-participant distribution layer, and
// the Medusa federated operation layer, together with the substrates they
// depend on (overlay network simulation, multiplexed transport, DHT
// catalogs, QoS model, k-safe high availability, and load management by
// box sliding and splitting).
//
// This package is the public facade: it re-exports the stable surface of
// the internal packages so applications never import repro/internal/...
// directly. The deliberately small vocabulary mirrors the paper:
//
//   - Tuples and Schemas (§2.1) — the stream data model.
//   - Query networks (§2.2) — loop-free graphs of operator boxes built
//     with NewQuery and the *Spec constructors.
//   - Engine (§2.3) — the single-node Aurora runtime with train
//     scheduling, a storage manager, QoS monitoring, and load shedding.
//   - Cluster (§3.1) — Aurora*: a query network partitioned across
//     simulated servers with load sharing and k-safe failover.
//   - Participants, contracts, and markets (§3.2, §7.2) — Medusa.
//
// See the examples directory for runnable programs and EXPERIMENTS.md for
// the reproduction of every figure in the paper.
package dsps

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/loadmgr"
	"repro/internal/medusa"
	"repro/internal/netsim"
	"repro/internal/op"
	"repro/internal/qos"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wgen"
)

// Data model (§2.1).
type (
	// Tuple is one stream event.
	Tuple = stream.Tuple
	// Value is one typed field of a tuple.
	Value = stream.Value
	// Schema describes the shape of a stream's tuples.
	Schema = stream.Schema
	// Field is one named, typed column of a schema.
	Field = stream.Field
	// Kind enumerates field types.
	Kind = stream.Kind
)

// Field kinds.
const (
	KindInt    = stream.KindInt
	KindFloat  = stream.KindFloat
	KindString = stream.KindString
	KindBool   = stream.KindBool
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = stream.Int
	// Float builds a float value.
	Float = stream.Float
	// Str builds a string value.
	Str = stream.String
	// Bool builds a boolean value.
	Bool = stream.Bool
	// NewTuple builds a tuple from values.
	NewTuple = stream.NewTuple
	// NewSchema builds a schema; MustSchema panics on error.
	NewSchema  = stream.NewSchema
	MustSchema = stream.MustSchema
)

// Query model (§2.2).
type (
	// QueryBuilder assembles a query network.
	QueryBuilder = query.Builder
	// Network is a validated query network.
	Network = query.Network
	// Port addresses one port of one box.
	Port = query.Port
	// OpSpec is a serializable operator description.
	OpSpec = op.Spec
	// Expr is a serializable expression (filter predicates, map columns).
	Expr = op.Expr
	// Aggregate is a windowed aggregate function with §5.1 combine
	// metadata.
	Aggregate = op.Aggregate
)

// NewQuery starts a query-network description.
func NewQuery(name string) *QueryBuilder { return query.NewBuilder(name) }

// CompileQuery compiles the small declarative continuous-query dialect of
// §2.2 ("SELECT cnt(reading) FROM readings WHERE region == \"cambridge\"
// GROUP BY sensor") into a box-and-arrow network with input FROM-name and
// output "out".
var CompileQuery = cql.Compile

// Selectivity carries per-box selectivity estimates for Optimize.
type Selectivity = query.Selectivity

// Optimize applies the §2.3 re-optimization rewrites (filter pushdown
// through unions, selectivity-ordered filter chains) and returns the
// rewritten network.
var Optimize = query.Optimize

// ParseExpr parses the expression syntax ("(price > 100) && (sym == \"IBM\")").
var ParseExpr = op.Parse

// MustParseExpr is ParseExpr that panics on error.
var MustParseExpr = op.MustParse

// Built-in aggregates (§2.2, §5.1).
var (
	Cnt   = op.Cnt
	Sum   = op.Sum
	Avg   = op.Avg
	Max   = op.Max
	Min   = op.Min
	First = op.First
	Last  = op.Last
)

// FilterSpec builds a Filter box: tuples satisfying pred pass; with
// falsePort a second output carries the rest.
func FilterSpec(pred string, falsePort bool) OpSpec {
	params := map[string]string{"predicate": pred}
	if falsePort {
		params["falseport"] = "true"
	}
	return OpSpec{Kind: "filter", Params: params}
}

// MapSpec builds a Map box from "name=expr; name=expr" projections.
func MapSpec(exprs string) OpSpec {
	return OpSpec{Kind: "map", Params: map[string]string{"exprs": exprs}}
}

// UnionSpec builds an n-input Union box.
func UnionSpec(inputs int) OpSpec {
	return OpSpec{Kind: "union", Params: map[string]string{"inputs": itoa(inputs)}}
}

// WSortSpec builds a time-bounded windowed sort over the given attributes.
func WSortSpec(attrs string, timeout int64) OpSpec {
	return OpSpec{Kind: "wsort", Params: map[string]string{
		"attrs": attrs, "timeout": itoa64(timeout)}}
}

// TumbleSpec builds a Tumble windowed aggregate: agg over the on
// expression, grouped by the comma-separated groupBy attributes.
func TumbleSpec(agg, on, groupBy string) OpSpec {
	return OpSpec{Kind: "tumble", Params: map[string]string{
		"agg": agg, "on": on, "groupby": groupBy}}
}

// XSectionSpec builds an XSection count-window aggregate.
func XSectionSpec(agg, on, groupBy string, size, advance int) OpSpec {
	return OpSpec{Kind: "xsection", Params: map[string]string{
		"agg": agg, "on": on, "groupby": groupBy,
		"size": itoa(size), "advance": itoa(advance)}}
}

// SlideSpec builds a Slide trailing-window aggregate.
func SlideSpec(agg, on, groupBy, order string, width float64) OpSpec {
	return OpSpec{Kind: "slide", Params: map[string]string{
		"agg": agg, "on": on, "groupby": groupBy,
		"order": order, "range": ftoa(width)}}
}

// JoinSpec builds a windowed symmetric join on key equality.
func JoinSpec(leftKey, rightKey string, window int64) OpSpec {
	return OpSpec{Kind: "join", Params: map[string]string{
		"leftkey": leftKey, "rightkey": rightKey, "window": itoa64(window)}}
}

// ResampleSpec builds a Resample interpolation of the named reference field.
func ResampleSpec(on string) OpSpec {
	return OpSpec{Kind: "resample", Params: map[string]string{"on": on}}
}

// QoS model (§7.1).
type (
	// QoS is an application's quality-of-service specification.
	QoS = qos.Spec
	// QoSGraph is one piecewise-linear utility graph.
	QoSGraph = qos.Graph
	// QoSPoint is one graph vertex.
	QoSPoint = qos.Point
	// BoxCost carries the statistics QoS inference consumes.
	BoxCost = qos.BoxCost
)

var (
	// NewQoSGraph builds a utility graph from vertices.
	NewQoSGraph = qos.NewGraph
	// LatencyQoS builds the canonical latency graph: full utility up to
	// good, zero at deadline.
	LatencyQoS = qos.DefaultLatency
	// LossQoS builds the canonical loss-tolerance graph.
	LossQoS = qos.DefaultLoss
	// InferQoS pushes an output QoS upstream through a box chain (Fig 9).
	InferQoS = qos.InferChain
)

// Engine (§2.3).
type (
	// Engine is the single-node Aurora runtime.
	Engine = engine.Engine
	// EngineConfig tunes an engine.
	EngineConfig = engine.Config
	// VirtualClock drives deterministic experiments.
	VirtualClock = engine.VirtualClock
	// ShedConfig configures the load shedder.
	ShedConfig = engine.ShedConfig
	// SLOConfig enables and tunes the latency-SLO plane.
	SLOConfig = engine.SLOConfig
	// OutputReport summarizes an output's observed QoS.
	OutputReport = engine.OutputReport
	// Attribution decomposes an output's tail latency per contributor.
	Attribution = engine.Attribution
	// BoxShare is one contributor's slice of attributed tail latency.
	BoxShare = engine.BoxShare
)

// Shedding policies.
const (
	ShedRandom = engine.ShedRandom
	ShedQoS    = engine.ShedQoS
)

// Observability: causal tracing and the flight recorder.
type (
	// Tracer samples tuples for tracing and records completed spans.
	Tracer = trace.Tracer
	// Span decomposes one tuple's latency into queue/proc/net.
	Span = trace.Span
	// FlightRecorder is the fixed-size ring of recent trace events.
	FlightRecorder = trace.Recorder
	// TraceEvent is one flight-recorder entry.
	TraceEvent = trace.Event
)

var (
	// NewTracer builds a tracer sampling every'th tuple into rec.
	NewTracer = trace.NewTracer
	// NewFlightRecorder builds a ring retaining the last n events.
	NewFlightRecorder = trace.NewRecorder
	// ChromeTrace renders events as Chrome trace-event JSON (Perfetto).
	ChromeTrace = trace.ChromeTrace
)

// Observability: the structured event journal — every control-plane
// decision (split, shed, offload, link transition, HA replay) as a typed,
// correlation-chained record in a fixed-memory ring.
type (
	// EventJournal is the fixed-memory ring of control-plane events.
	EventJournal = events.Journal
	// ClusterEvent is one journaled control-plane decision.
	ClusterEvent = events.Event
	// EventKind classifies a journaled event.
	EventKind = events.Kind
)

var (
	// NewEventJournal builds a journal retaining the last n events.
	NewEventJournal = events.NewJournal
	// MergeEvents time-sorts several journals into one cluster history.
	MergeEvents = events.Merge
	// FormatEvents renders events as readable dump lines.
	FormatEvents = events.Format
)

// Event kinds.
const (
	EventSplit         = events.KindSplit
	EventUnsplit       = events.KindUnsplit
	EventOffload       = events.KindOffload
	EventShedEngage    = events.KindShedEngage
	EventShedDisengage = events.KindShedDisengage
	EventLinkState     = events.KindLinkState
	EventHAReplay      = events.KindHAReplay
	EventFault         = events.KindFault
	EventSLOWarn       = events.KindSLOWarn
	EventBottleneck    = events.KindBottleneck
)

// Latency-SLO plane: mergeable quantile sketches (DESIGN §13).
type (
	// LatencySketch is the fixed-memory mergeable quantile sketch every
	// delivered tuple's latency feeds.
	LatencySketch = sketch.Sketch
)

var (
	// NewLatencySketch builds a sketch with relative-error alpha.
	NewLatencySketch = sketch.New
	// DecodeLatencySketch decodes a gossiped sketch encoding.
	DecodeLatencySketch = sketch.DecodeSketch
)

// SketchDefaultAlpha is the default sketch relative-error bound (1%).
const SketchDefaultAlpha = sketch.DefaultAlpha

// Statistics plane: windowed series and the gossiped load map (§7.1).
type (
	// StatsStore is the fixed-memory windowed time-series store.
	StatsStore = stats.Store
	// StatsPlane bundles a node's store, digest publisher, and load map.
	StatsPlane = stats.Plane
	// StatsDigest is one node's compact gossiped load summary.
	StatsDigest = stats.Digest
	// StatsExport is one exported series with its windowed points.
	StatsExport = stats.SeriesExport
	// LoadMap is a node's converged view of cluster load.
	LoadMap = stats.LoadMap
)

var (
	// NewStatsStore builds a windowed store (window length, ring size).
	NewStatsStore = stats.NewStore
	// NewStatsPlane builds a node's statistics plane.
	NewStatsPlane = stats.NewPlane
	// NewLoadMap builds an empty load map for a node.
	NewLoadMap = stats.NewLoadMap
	// OffloadFromMap plans a box offload from windowed load (§7.1).
	OffloadFromMap = loadmgr.OffloadFromMap
)

var (
	// NewEngine instantiates a network on one node.
	NewEngine = engine.New
	// NewVirtualClock returns a deterministic clock.
	NewVirtualClock = engine.NewVirtualClock
	// Drive offers tuples at a fixed rate under a virtual clock.
	Drive = engine.Drive
	// NewTrainScheduler, NewRoundRobinScheduler, NewQoSScheduler build
	// the scheduling disciplines of §2.3.
	NewTrainScheduler      = engine.NewTrainScheduler
	NewRoundRobinScheduler = engine.NewRoundRobinScheduler
	NewQoSScheduler        = engine.NewQoSScheduler
)

// Distribution (§3.1, §5, §6).
type (
	// Cluster is the Aurora* distributed processor.
	Cluster = core.Cluster
	// ClusterConfig tunes a cluster.
	ClusterConfig = core.Config
	// Sim is the overlay-network simulator clusters run on.
	Sim = netsim.Sim
	// SharePolicy tunes the load-share daemons.
	SharePolicy = loadmgr.Policy
	// SplitInfo names the boxes a split introduced.
	SplitInfo = loadmgr.SplitInfo
)

var (
	// NewSim creates an overlay simulator.
	NewSim = netsim.New
	// NewCluster partitions a network over simulated servers.
	NewCluster = core.NewCluster
	// SplitBox rewrites a network, splitting one box with the given
	// router predicate (§5.1, Figs 5-7).
	SplitBox = loadmgr.Split
	// HashHalfPredicate routes a deterministic half of the key space.
	HashHalfPredicate = loadmgr.HashHalf
	// DefaultSharePolicy is a reasonable watermark policy.
	DefaultSharePolicy = loadmgr.DefaultPolicy
)

// Federation (§3.2, §7.2).
type (
	// Participant is one Medusa administrative domain.
	Participant = medusa.Participant
	// Offer is a stream a participant sells.
	Offer = medusa.Offer
	// ContentContract pays for a stream (§7.2).
	ContentContract = medusa.ContentContract
	// MovementContract holds alternate distributed plans.
	MovementContract = medusa.MovementContract
	// Market simulates the agoric economy.
	Market = medusa.Market
	// MarketStage is one pipeline step with work and value-add.
	MarketStage = medusa.Stage
	// MarketEcon is a participant's capacity and costs.
	MarketEcon = medusa.Econ
)

var (
	// NewParticipant creates a participant with an account and catalog.
	NewParticipant = medusa.NewParticipant
	// RemoteDefine instantiates an operator at another participant (§4.4).
	RemoteDefine = medusa.RemoteDefine
	// NewMarket builds the §7.2 economy over a participant chain.
	NewMarket = medusa.NewMarket
)

// Transport: self-healing multiplexed TCP peer links (§4.3, §6).
type (
	// Transport is the multiplexed TCP endpoint: one supervised
	// connection per peer with WFQ scheduling across streams.
	Transport = transport.TCP
	// TransportMsg is one framed message on a peer connection.
	TransportMsg = transport.Msg
	// TransportHandler receives inbound messages.
	TransportHandler = transport.Handler
	// LinkConfig tunes handshake/write deadlines, keepalives, reconnect
	// backoff, and the bounded outbound buffer of a supervised link.
	LinkConfig = transport.LinkConfig
	// LinkState is a supervised link's lifecycle state.
	LinkState = transport.LinkState
	// LinkInfo is one link's observable state and counters, as served
	// by the /links telemetry endpoint.
	LinkInfo = transport.LinkInfo
)

// Link lifecycle states: connecting → established ⇄ degraded → down.
const (
	LinkConnecting  = transport.LinkConnecting
	LinkEstablished = transport.LinkEstablished
	LinkDegraded    = transport.LinkDegraded
	LinkDown        = transport.LinkDown
)

var (
	// ListenTCP binds a transport endpoint; AddPeer then supervises
	// links with reconnect and replay-on-reconnect hooks.
	ListenTCP = transport.ListenTCP
)

// Workload generation.
type (
	// Source produces tuples with inter-arrival gaps.
	Source = wgen.Source
	// Arrival models an inter-arrival process.
	Arrival = wgen.Arrival
)

var (
	// NewPoissonArrival, NewOnOffArrival, NewParetoArrival, and
	// NewConstantArrival build arrival processes.
	NewPoissonArrival  = wgen.NewPoissonArrival
	NewOnOffArrival    = wgen.NewOnOffArrival
	NewParetoArrival   = wgen.NewParetoArrival
	NewConstantArrival = wgen.NewConstantArrival
	// NewSensorSource, NewStockSource, and NewNetFlowSource build the
	// synthetic workloads of the examples and experiments.
	NewSensorSource  = wgen.NewSensorSource
	NewStockSource   = wgen.NewStockSource
	NewNetFlowSource = wgen.NewNetFlowSource
	// SensorSchema, QuoteSchema, and FlowSchema are their schemas.
	SensorSchema = wgen.SensorSchema
	QuoteSchema  = wgen.QuoteSchema
	FlowSchema   = wgen.FlowSchema
	// CollectSource drains up to n tuples from a source.
	CollectSource = wgen.Collect
)

func itoa(v int) string { return strconv.Itoa(v) }

func itoa64(v int64) string { return strconv.FormatInt(v, 10) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
