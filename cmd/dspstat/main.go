// dspstat scrapes the statistics plane of one or more running auroranode
// processes (their -http telemetry endpoints) and renders the cluster the
// way an operator wants to see it: a per-node load table from each node's
// gossiped load map, the per-box load split inside every digest, and the
// raw windowed series behind the numbers.
//
// Example:
//
//	auroranode -id n1 -listen :7001 -network net.json -stats 100ms -http :8001 &
//	dspstat -nodes http://127.0.0.1:8001
//
// Because the load map is gossiped, scraping ANY one node shows the whole
// cluster once the digests have converged; scraping several lets you spot
// a node whose view is stale (its Seq column lags).
//
// With -watch the view refreshes in place every -interval, and a rolling
// tail of the cluster's structured event journal (splits, sheds, link
// transitions, replays) is appended below the tables — the closest thing
// to a cockpit the cluster has.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/events"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// nodeReport is everything dspstat learned from one node's telemetry.
// Each endpoint is optional — a node without a stats plane still serves
// /links, and vice versa — so each section carries its own Has flag.
type nodeReport struct {
	Base     string // base URL the report came from
	LoadMap  telemetry.LoadMapResponse
	Stats    telemetry.StatsResponse
	Links    telemetry.LinksResponse
	Events   telemetry.EventsResponse
	HasLoad  bool  // /loadmap answered (node runs a stats plane)
	HasStat  bool  // /stats answered
	HasLink  bool  // /links answered (node runs a transport)
	HasEvent bool  // /events answered (node runs an event journal)
	Err      error // nothing answered; other fields are zero
}

// node is the scraped node's self-reported identity, from whichever
// endpoint answered.
func (rep *nodeReport) node() string {
	switch {
	case rep.HasLoad:
		return rep.LoadMap.Node
	case rep.HasLink:
		return rep.Links.Node
	case rep.HasEvent:
		return rep.Events.Node
	default:
		return rep.Stats.Node
	}
}

// scrapeNode pulls /loadmap, /stats, /links, and /events from one
// telemetry endpoint. series and window are passed through as the /stats
// query. Any subset of the endpoints may 404 (no stats plane, no
// transport, no journal); the report only fails when none of them answer.
func scrapeNode(client *http.Client, base, series string, window int) *nodeReport {
	return scrapeNodeSince(client, base, series, window, 0)
}

// scrapeNodeSince is scrapeNode with an /events cursor: only journal
// events newer than since come back, which is how -watch tails the
// cluster without re-reading history every refresh.
func scrapeNodeSince(client *http.Client, base, series string, window int, since uint64) *nodeReport {
	rep := &nodeReport{Base: base}
	errLoad := getJSON(client, base+"/loadmap", &rep.LoadMap)
	rep.HasLoad = errLoad == nil
	rep.HasLink = getJSON(client, base+"/links", &rep.Links) == nil
	rep.HasEvent = getJSON(client,
		fmt.Sprintf("%s/events?since=%d", base, since), &rep.Events) == nil
	q := ""
	if series != "" {
		q = "?series=" + series
	}
	if window > 0 {
		if q == "" {
			q = "?"
		} else {
			q += "&"
		}
		q += fmt.Sprintf("window=%d", window)
	}
	rep.HasStat = getJSON(client, base+"/stats"+q, &rep.Stats) == nil
	if !rep.HasLoad && !rep.HasLink && !rep.HasStat && !rep.HasEvent {
		rep.Err = errLoad
	}
	return rep
}

func getJSON(client *http.Client, url string, into interface{}) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, into)
}

// render writes the operator view: one cluster table per scraped node
// (its load-map ranking with per-box loads, delivered-latency p99s, and
// QoS headroom from the digests' sketches) followed by that node's own
// windowed series. bn maps output → the box the SLO plane last attributed
// its tail latency to; those boxes render with a `*` in the BOXES column.
func render(w io.Writer, reports []*nodeReport, bn map[string]string) {
	hot := map[string]bool{}
	for _, box := range bn {
		hot[box] = true
	}
	for _, rep := range reports {
		if rep.Err != nil {
			fmt.Fprintf(w, "%s: scrape failed: %v\n", rep.Base, rep.Err)
			continue
		}
		fmt.Fprintf(w, "== %s (as seen by node %q) ==\n", rep.Base, rep.node())

		var tw *tabwriter.Writer
		if rep.HasLoad {
			byNode := map[string]stats.Digest{}
			for _, d := range rep.LoadMap.Digests {
				byNode[d.Node] = d
			}
			tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "NODE\tUTIL\tQUEUED\tSEQ\tDELIVERED\tP99\tHEADROOM\tBOXES")
			for _, node := range rep.LoadMap.Ranking {
				d := byNode[node]
				fmt.Fprintf(tw, "%s\t%.3f\t%.0f\t%d\t%s\t%s\t%s\t%s\n",
					d.Node, d.Util, d.Queued, d.Seq, outputColumn(d.Outputs),
					p99Column(d.Outputs), headroomColumn(d.Outputs),
					boxColumn(d.Boxes, hot))
			}
			tw.Flush()
			if len(bn) > 0 {
				fmt.Fprintln(w, "   * = attributed tail-latency bottleneck")
			}
		}

		if rep.HasLink && len(rep.Links.Links) > 0 {
			fmt.Fprintf(w, "-- links on %s --\n", rep.Links.Node)
			tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "PEER\tSTATE\tDIALS\tRECONN\tBUF\tREQUEUED\tDROPPED\tSENT\tWRITES\tINLINE")
			for _, l := range rep.Links.Links {
				state := l.State
				if !l.Supervised {
					state += " (unsupervised)"
				}
				// SENT/WRITES is the coalescing factor: frames per socket
				// write. INLINE/WRITES is the share of writes made by the
				// sender itself, with no hand-off to the write loop.
				fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
					l.Peer, state, l.Dials, l.Reconnects, l.Buffered,
					l.Requeued, l.Dropped, l.MsgsSent, l.Writes, l.InlineWrites)
			}
			tw.Flush()
		}

		if rep.HasStat && len(rep.Stats.Series) > 0 {
			fmt.Fprintf(w, "-- series on %s (window %dms, k=%d) --\n",
				rep.Stats.Node, rep.Stats.WindowNs/1e6, rep.Stats.K)
			series := append([]stats.SeriesExport(nil), rep.Stats.Series...)
			sort.Slice(series, func(i, j int) bool { return series[i].Name < series[j].Name })
			tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "SERIES\tKIND\tLATEST\tWINDOWED")
			for _, s := range series {
				fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\n", s.Name, s.Kind, s.Latest, s.Windowed)
			}
			tw.Flush()
		}
		fmt.Fprintln(w)
	}
}

// outputColumn formats a digest's delivered-QoS attribution: per output,
// the mean utility the QoS graphs awarded what was actually delivered,
// and the delivery rate behind it.
func outputColumn(outs []stats.OutputQoS) string {
	if len(outs) == 0 {
		return "-"
	}
	sorted := append([]stats.OutputQoS(nil), outs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Output < sorted[j].Output })
	parts := make([]string, len(sorted))
	for i, o := range sorted {
		parts[i] = fmt.Sprintf("%s=%.3fu", o.Output, o.Utility)
	}
	return strings.Join(parts, " ")
}

// p99Column formats each output's delivered-latency p99, decoded from the
// digest's gossiped quantile sketch. Outputs without a sketch render "-".
func p99Column(outs []stats.OutputQoS) string {
	var parts []string
	for _, o := range sortedOutputs(outs) {
		if len(o.Sketch) == 0 {
			continue
		}
		sk, _, err := sketch.DecodeSketch(o.Sketch)
		if err != nil || sk.Count() == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%s", o.Output, fmtNs(sk.Quantile(0.99))))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// headroomColumn formats each output's forecast headroom — the fractional
// distance of the p99 trajectory to the QoS latency cliff. Outputs whose
// forecaster has not run render "-".
func headroomColumn(outs []stats.OutputQoS) string {
	var parts []string
	for _, o := range sortedOutputs(outs) {
		if o.Headroom <= stats.HeadroomUnknown {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%+.2f", o.Output, o.Headroom))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

func sortedOutputs(outs []stats.OutputQoS) []stats.OutputQoS {
	sorted := append([]stats.OutputQoS(nil), outs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Output < sorted[j].Output })
	return sorted
}

// fmtNs renders a nanosecond latency at operator scale.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// updateBottlenecks folds freshly scraped bottleneck attributions into
// the rolling output → box map; events arrive oldest-first, so the last
// write per output is the SLO plane's latest verdict.
func updateBottlenecks(bn map[string]string, reports []*nodeReport) {
	for _, rep := range reports {
		if !rep.HasEvent {
			continue
		}
		for _, ev := range rep.Events.Events {
			if ev.Kind == events.KindBottleneck {
				bn[ev.Subject] = ev.Detail
			}
		}
	}
}

// renderEventTail prints the merged, time-sorted tail of every scraped
// node's event journal — the cluster's recent control-plane history.
func renderEventTail(w io.Writer, tail []events.Event, max int) {
	if len(tail) == 0 || max <= 0 {
		return
	}
	if len(tail) > max {
		tail = tail[len(tail)-max:]
	}
	fmt.Fprintf(w, "-- cluster events (last %d) --\n", len(tail))
	fmt.Fprint(w, events.Format(tail))
}

// mergeEventTail folds freshly scraped events into the rolling tail,
// keeping it time-sorted and bounded.
func mergeEventTail(tail []events.Event, reports []*nodeReport, bound int) []events.Event {
	for _, rep := range reports {
		if rep.HasEvent {
			tail = append(tail, rep.Events.Events...)
		}
	}
	sort.SliceStable(tail, func(i, j int) bool { return tail[i].Time < tail[j].Time })
	if len(tail) > bound {
		tail = tail[len(tail)-bound:]
	}
	return tail
}

// boxColumn formats a digest's per-box loads, heaviest first. Boxes in
// hot — the SLO plane's attributed bottlenecks — are starred.
func boxColumn(boxes []stats.BoxLoad, hot map[string]bool) string {
	if len(boxes) == 0 {
		return "-"
	}
	sorted := append([]stats.BoxLoad(nil), boxes...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Load != sorted[j].Load {
			return sorted[i].Load > sorted[j].Load
		}
		return sorted[i].Box < sorted[j].Box
	})
	parts := make([]string, len(sorted))
	for i, b := range sorted {
		mark := ""
		if hot[b.Box] {
			mark = "*"
		}
		parts[i] = fmt.Sprintf("%s%s=%.3f", b.Box, mark, b.Load)
	}
	return strings.Join(parts, " ")
}

// parseBases normalizes the -nodes flag into base URLs.
func parseBases(nodes string) []string {
	var bases []string
	for _, base := range strings.Split(nodes, ",") {
		base = strings.TrimRight(strings.TrimSpace(base), "/")
		if base == "" {
			continue
		}
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		bases = append(bases, base)
	}
	return bases
}

// scrapeAll scrapes every base, advancing each node's /events cursor in
// place so the next round only fetches fresh events.
func scrapeAll(client *http.Client, bases []string, series string, window int, cursors map[string]uint64) []*nodeReport {
	reports := make([]*nodeReport, 0, len(bases))
	for _, base := range bases {
		rep := scrapeNodeSince(client, base, series, window, cursors[base])
		if rep.HasEvent {
			cursors[base] = rep.Events.Next
		}
		reports = append(reports, rep)
	}
	return reports
}

func main() {
	var (
		nodes    = flag.String("nodes", "", "comma-separated telemetry base URLs (required)")
		series   = flag.String("series", "", "series name prefix filter for /stats")
		window   = flag.Int("window", 0, "override how many complete windows the windowed value averages")
		watch    = flag.Bool("watch", false, "refresh the view in place until interrupted")
		interval = flag.Duration("interval", 2*time.Second, "refresh period for -watch")
		eventsN  = flag.Int("events", 12, "cluster event-tail lines to keep below the tables (0 hides the tail)")
	)
	flag.Parse()
	if *nodes == "" {
		fmt.Fprintln(os.Stderr, "dspstat: -nodes is required, e.g. -nodes http://127.0.0.1:8001")
		os.Exit(2)
	}
	bases := parseBases(*nodes)

	client := http.DefaultClient
	cursors := map[string]uint64{}
	bottlenecks := map[string]string{}
	var tail []events.Event

	if *watch {
		for {
			reports := scrapeAll(client, bases, *series, *window, cursors)
			tail = mergeEventTail(tail, reports, *eventsN)
			updateBottlenecks(bottlenecks, reports)
			// Clear the terminal and home the cursor: the view repaints in
			// place like top(1).
			fmt.Print("\033[2J\033[H")
			fmt.Printf("dspstat %s  (refresh %v, ^C to quit)\n\n",
				time.Now().Format("15:04:05"), *interval)
			render(os.Stdout, reports, bottlenecks)
			renderEventTail(os.Stdout, tail, *eventsN)
			time.Sleep(*interval)
		}
	}

	reports := scrapeAll(client, bases, *series, *window, cursors)
	tail = mergeEventTail(tail, reports, *eventsN)
	updateBottlenecks(bottlenecks, reports)
	failed := false
	for _, rep := range reports {
		if rep.Err != nil {
			failed = true
		}
	}
	render(os.Stdout, reports, bottlenecks)
	renderEventTail(os.Stdout, tail, *eventsN)
	if failed {
		os.Exit(1)
	}
}
