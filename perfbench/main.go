// Command perfbench is the serving benchmark for spantreed. It boots real
// spantreed processes on loopback, drives them from one closed-loop load
// generator, checks every returned tree, and prints one JSON result object
// as the last line of standard output.
//
//	bash perfbench/run.sh --workload fresh-n96 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the separate traced pass that attributes time to layers (see traced.go).
// Every layer is measured from outside the program: by timing calls into
// its public functions and by reading what the daemons already expose
// (/v1/traces, /v1/stats, /metrics, NDJSON stats). design.json records why
// each workload exists and which end-to-end metric each layer metric should
// move.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	spantree "repro"
	"repro/perfbench/wire"
)

// design.json is the one place the workloads are written down: the graph,
// and each workload's sampler, request size, clients and daemon flags. The
// benchmark runs from it, so the record cannot drift from what is measured.
//
//go:embed design.json
var designJSON []byte

type design struct {
	Graph struct {
		Key    string `json:"key"`
		Family string `json:"family"`
		N      int    `json:"n"`
		Seed   uint64 `json:"seed"`
	} `json:"graph"`
	Workloads []workload `json:"workloads"`
	TracedRun struct {
		// ReplicaFlags are added to every replica of a traced run.
		ReplicaFlags []string `json:"replica_flags"`
	} `json:"traced_run"`
}

// cfg is design.json, loaded by main.
var cfg design

const (
	setupRounds = 7
	// subWindows splits the measured window; the machine's speed is
	// calibrated between sub-windows (see speed.go).
	subWindows = 10
	// subsetRequests is how many leading requests of the plan are kept
	// whole and checked byte for byte against in-process sampling.
	subsetRequests = 2
)

// workload is one traffic mix. Every request is a
// /v1/graphs/{key}/stream call of K trees from the sampler, sent by Clients
// closed-loop clients. Each daemon gets -addr on a free loopback port; a
// router, there when RouterFlags is set, also gets -peers naming the
// replicas.
type workload struct {
	Name         string   `json:"name"`
	Sampler      string   `json:"sampler"`
	K            int      `json:"k"`
	Clients      int      `json:"clients"`
	Replicas     int      `json:"replicas"`
	ReplicaFlags []string `json:"replica_flags"`
	RouterFlags  []string `json:"router_flags"`
	// Catalogue is 0 for a fresh seed base per request; else the requests
	// go round-robin over this many seed bases per sub-window, warmed
	// untimed.
	Catalogue int `json:"catalogue"`
}

func loadDesign() error {
	if err := json.Unmarshal(designJSON, &cfg); err != nil {
		return fmt.Errorf("decoding design.json: %w", err)
	}
	for _, w := range cfg.Workloads {
		if w.Name == "" || w.Sampler == "" || w.K < 1 || w.Clients < 1 || w.Replicas < 1 ||
			(w.RouterFlags == nil && w.Replicas != 1) {
			return fmt.Errorf("design.json: incomplete workload %+v", w)
		}
	}
	return nil
}

// Seed-base domains keep the bases of different request families apart.
const (
	domainPlan = iota + 1
	domainWarm
	domainTraced
	domainPaired
	domainGolden
)

// mix is SplitMix64 over (seed, domain, j): seed bases are a pure function
// of the workload seed, kept below 2^53 so they survive any JSON reader.
func mix(seed uint64, domain, j int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(domain)<<40 + uint64(j) + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return z&(1<<53-1) | 1
}

// planBase is the seed base of the workload's j-th timed request, in
// sub-window e.
func (w workload) planBase(seed uint64, e, j int) uint64 {
	if w.Catalogue > 0 {
		return mix(seed, domainPlan, e*w.Catalogue+j%w.Catalogue)
	}
	return mix(seed, domainPlan, j)
}

// samplerSpec is the in-process form of a sampler the daemons are asked
// for, built the way spantreed builds it from the request body.
func samplerSpec(sampler string) spantree.SamplerSpec {
	return spantree.SamplerSpec{Name: spantree.Sampler(sampler)}
}

func main() {
	var (
		name      = flag.String("workload", "", "workload name: fresh-n96, replay-n96 or wilson-router")
		seed      = flag.Uint64("seed", 1, "workload seed: the request list is a pure function of it")
		seconds   = flag.Int("seconds", 20, "measured window length in seconds")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		daemonBin = flag.String("spantreed", "", "path to the spantreed binary")
		layersBin = flag.String("layers", "", "path to the in-process layer probe binary (traced run only)")
		golden    = flag.String("write-golden", "", "write the golden output lines (see check.go) to this file and exit")
	)
	flag.Parse()
	err := loadDesign()
	if err == nil && *golden != "" {
		err = writeGolden(context.Background(), *golden)
	} else if err == nil {
		err = run(*name, *seed, *seconds, *trace, *daemonBin, *layersBin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, daemonBin, layersBin string) error {
	var w workload
	for _, c := range cfg.Workloads {
		if c.Name == name {
			w = c
		}
	}
	if w.Name == "" {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("seconds must be >= 1, got %d", seconds)
	}
	if daemonBin == "" {
		return errors.New("-spantreed is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	g, err := buildGraph()
	if err != nil {
		return fmt.Errorf("building reference graph: %w", err)
	}
	b := &bench{w: w, seed: seed, window: time.Duration(seconds) * time.Second, bin: daemonBin, chk: newChecker(g), http: newHTTPClient()}
	if err := b.chk.loadGolden(w.Sampler); err != nil {
		return err
	}
	if trace != 0 {
		if layersBin == "" && w.Sampler == "phase" {
			return errors.New("-layers is required for a traced phase workload")
		}
		return b.traced(ctx, layersBin)
	}
	return b.endToEnd(ctx)
}

// buildGraph builds the benchmark graph in process.
func buildGraph() (*spantree.Graph, error) {
	return spantree.BuildFamily(cfg.Graph.Family, cfg.Graph.N, cfg.Graph.Seed)
}

// bench carries one run's configuration and shared state.
type bench struct {
	w      workload
	seed   uint64
	window time.Duration
	bin    string
	chk    *checker
	http   *httpClient
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable notes, each prefixed with "#", and then
// the result object, which must be the last line of standard output.
func report(correct bool, attempted, failed int, metrics map[string]metric, notes []string) {
	for _, n := range notes {
		fmt.Println("#", strings.ReplaceAll(n, "\n", "\n# "))
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	fmt.Println(string(out))
}

// endToEnd is the --trace 0 run: repeated set-up, the timed closed loop,
// then the output checks. Every time and rate it reports is scaled to the
// reference machine speed (see speed.go); the raw figures are printed as
// notes.
func (b *bench) endToEnd(ctx context.Context) error {
	for _, r := range b.subset() {
		b.chk.keepBase(r.Base)
	}
	var setups, rawSetups []float64
	var cl *cluster
	cal := newCalibrator()
	before := cal.speed()
	for r := 0; r < setupRounds; r++ {
		c, d, err := b.setup(ctx, false)
		if err != nil {
			return err
		}
		after, err := c.calibrate(cal)
		if err != nil {
			c.stop()
			return err
		}
		rawSetups = append(rawSetups, d.Seconds())
		setups = append(setups, scaleTime(d, (before+after)/2).Seconds())
		before = after
		if r < setupRounds-1 {
			c.stop()
			continue
		}
		cl = c
	}
	defer cl.stop()

	res, err := b.closedLoop(ctx, cl, cal)
	if err != nil {
		return err
	}
	trees, scaledTrees, cpu, scaledCPU := res.totals()
	if trees == 0 {
		return errors.New("no tree was delivered in the measured window")
	}
	rssKB, err := cl.peakRSSKB()
	if err != nil {
		return err
	}
	if err := b.checkSubset(ctx, cl); err != nil {
		return err
	}
	cl.stop()

	reqLat := res.latencies(false, func(r reqResult) time.Time { return r.end })
	firstLat := res.latencies(false, func(r reqResult) time.Time { return r.firstTree })
	metrics := map[string]metric{
		"trees_per_s":       {scaledTrees / b.window.Seconds(), "1/s"},
		"request_p50_ms":    {ms(quantile(reqLat, 0.5)), "ms"},
		"request_p90_ms":    {ms(quantile(reqLat, 0.9)), "ms"},
		"first_tree_p50_ms": {ms(quantile(firstLat, 0.5)), "ms"},
		"first_tree_p90_ms": {ms(quantile(firstLat, 0.9)), "ms"},
		"cpu_ms_per_tree":   {scaledCPU * 1e3 / trees, "ms"},
		"setup_s":           {wire.Median(setups), "s"},
		"peak_rss_mb":       {float64(rssKB) / 1024, "MiB"},
	}
	raw := res.latencies(true, func(r reqResult) time.Time { return r.end })
	rawFirst := res.latencies(true, func(r reqResult) time.Time { return r.firstTree })
	notes := []string{
		fmt.Sprintf("workload %s seed %d: %d clients, closed loop, k=%d %s, %d replica(s)%s, window %s in %d sub-windows",
			b.w.Name, b.seed, b.w.Clients, b.w.K, b.w.Sampler, b.w.Replicas, routerNote(b.w), b.window, subWindows),
		res.failureLine(),
		fmt.Sprintf("failed_share %.4f (failed or refused requests / requests attempted)", res.failedShare()),
		fmt.Sprintf("latency samples: %d requests; %d beyond p90 (want >= 10)", len(reqLat), len(reqLat)-int(0.9*float64(len(reqLat))+0.5)),
		fmt.Sprintf("trees checked: %d validated as spanning trees; %d lines compared byte for byte, %d of them with golden.ndjson", b.chk.validated.Load(), b.chk.compared.Load(), b.chk.goldenCompared.Load()),
		fmt.Sprintf("machine speed per sub-window, relative to the reference the metrics are scaled to: %s", formatFloats(res.speeds)),
		fmt.Sprintf("raw, unscaled: trees_per_s %.4f, request p50/p90 %.4f/%.4f ms, first_tree p50/p90 %.4f/%.4f ms, cpu_ms_per_tree %.4f, setup_s rounds %s",
			trees/b.window.Seconds(), ms(quantile(raw, 0.5)), ms(quantile(raw, 0.9)),
			ms(quantile(rawFirst, 0.5)), ms(quantile(rawFirst, 0.9)), cpu*1e3/trees, formatFloats(rawSetups)),
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		notes = append(notes, fmt.Sprintf("%-20s %14.4f %s", k, metrics[k].Value, metrics[k].Unit))
	}
	correct := b.chk.ok()
	for _, e := range b.chk.errors() {
		notes = append(notes, "CHECK FAILED: "+e)
	}
	report(correct, res.attempted, res.failed, metrics, notes)
	if !correct {
		return errors.New("output check failed")
	}
	return nil
}

func routerNote(w workload) string {
	if w.RouterFlags != nil {
		return " behind a router"
	}
	return ""
}

func formatFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// setup boots the workload's daemons and brings them to serving state: ready,
// graph registered, first prepared sample drawn, and (replay) the catalogue
// warmed. Its duration is what setup_s reports. For the traced run the
// replicas get the traced run's flags, and the first sample carries an
// X-Request-ID so its trace (with engine/prepare) is kept.
func (b *bench) setup(ctx context.Context, traced bool) (*cluster, time.Duration, error) {
	start := time.Now()
	var extra []string
	reqID := ""
	if traced {
		extra = cfg.TracedRun.ReplicaFlags
		reqID = fmt.Sprintf("perfbench-%d-prepare", b.seed)
	}
	cl, err := bootCluster(ctx, b.bin, b.w, extra)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*cluster, time.Duration, error) {
		cl.stop()
		return nil, 0, err
	}
	if err := cl.register(ctx, b.http); err != nil {
		return fail(err)
	}
	// The first sample's seed base is the same in every run, so set-up does
	// identical work whatever the workload seed.
	first := setupRequest(b.w.Sampler)
	if r := b.http.stream(ctx, cl.front().url, first, reqID, b.chk.onTree); r.outcome != outcomeOK {
		return fail(fmt.Errorf("first sample: %s", r.describe()))
	}
	if err := b.warm(ctx, cl, 0); err != nil {
		return fail(err)
	}
	return cl, time.Since(start), nil
}

// warm requests sub-window e's catalogue once; its lines become the reference
// every replayed copy must equal.
func (b *bench) warm(ctx context.Context, cl *cluster, e int) error {
	for c := 0; c < b.w.Catalogue; c++ {
		req := streamReq{Base: b.w.planBase(b.seed, e, c), K: b.w.K, Sampler: b.w.Sampler}
		if r := b.http.stream(ctx, cl.front().url, req, "", b.chk.recordReference); r.outcome != outcomeOK {
			return fmt.Errorf("warm pass: %s", r.describe())
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the linear-interpolation quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}
