package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	spantree "repro"
	"repro/perfbench/wire"
)

// The traced run (--trace 1) attributes a workload's time to layers. It
// boots the same daemons, then:
//
//   - sends k=1 requests with X-Request-ID set, alternating blocks of traced
//     and untraced requests, and reads each traced request's spans back from
//     /v1/traces of the serving replica (the router does not forward the
//     header, so on wilson-router traced requests go to the owner replica);
//   - reads /v1/stats phase-cache counters and router /metrics counters
//     around that pass;
//   - pairs the workload's own requests over HTTP with the same requests
//     sampled in process, and router with direct requests;
//   - runs the in-process layer probe (perfbench/layers) on the subset
//     samples of the phase workloads.
//
// A trace keeps at most 2048 spans (internal/obs), so a phase tree's trace
// covers only its first phases; span-derived core numbers are normalised
// per fully recorded phase and the covered phase indices are printed.

// tracedBlock is the number of requests per traced or untraced block.
const tracedBlock = 16

// layerMetric is one per-layer number with where it came from.
type layerMetric struct {
	name   string
	value  float64
	unit   string
	source string
}

// spanTrace is the part of a /v1/traces entry the benchmark reads.
type spanTrace struct {
	ID           string `json:"id"`
	Complete     bool   `json:"complete"`
	DroppedSpans int64  `json:"dropped_spans"`
	Spans        []struct {
		Name       string           `json:"name"`
		StartUS    float64          `json:"start_us"`
		DurationUS float64          `json:"duration_us"`
		Attrs      map[string]int64 `json:"attrs"`
	} `json:"spans"`
}

func (b *bench) fetchTraces(ctx context.Context, d *daemon, limit int) ([]spanTrace, error) {
	raw, err := b.http.get(ctx, fmt.Sprintf("%s/v1/traces?limit=%d", d.url, limit))
	if err != nil {
		return nil, err
	}
	var out struct {
		Traces []spanTrace `json:"traces"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("decoding /v1/traces: %w", err)
	}
	return out.Traces, nil
}

// tracedPass is what the alternating traced/untraced blocks produced.
type tracedPass struct {
	traces        []spanTrace
	tracedTime    time.Duration
	tracedReqs    int
	untracedTime  time.Duration
	untracedReqs  int
	rejected      int // 429 and 504 answers
	failed        int
	attempted     int
	missingTraces int
}

// tracedRequest is the j-th k=1 request of the traced pass.
func (b *bench) tracedRequest(j int) streamReq {
	if b.w.Catalogue > 0 {
		slot := j % (b.w.Catalogue * b.w.K)
		return streamReq{Base: b.w.planBase(b.seed, 0, slot/b.w.K), Start: slot % b.w.K, K: 1, Sampler: b.w.Sampler}
	}
	return streamReq{Base: mix(b.seed, domainTraced, j), K: 1, Sampler: b.w.Sampler}
}

// runBlock sends n requests starting at plan index j0 from the workload's
// clients and returns the block's wall time.
func (b *bench) runBlock(ctx context.Context, d *daemon, j0, n int, ids []string, tp *tracedPass) time.Duration {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan int, n) // holds the whole block
	)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	start := time.Now()
	for c := 0; c < b.w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				id := ""
				if ids != nil {
					id = ids[i]
				}
				r := b.http.stream(ctx, d.url, b.tracedRequest(j0+i), id, b.chk.onTree)
				mu.Lock()
				tp.attempted++
				if r.outcome != outcomeOK {
					tp.failed++
				}
				if r.outcome == outcome429 || r.outcome == outcome504 {
					tp.rejected++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// runTracedPass alternates traced and untraced blocks against d for the
// window and collects the traced requests' spans.
func (b *bench) runTracedPass(ctx context.Context, d *daemon) (*tracedPass, error) {
	tp := &tracedPass{}
	deadline := time.Now().Add(b.window)
	j := 0
	for block := 0; block == 0 || time.Now().Before(deadline); block++ {
		ids := make([]string, tracedBlock)
		want := map[string]bool{}
		for i := range ids {
			ids[i] = fmt.Sprintf("perfbench-%d-%d", b.seed, j+i)
			want[ids[i]] = true
		}
		tp.tracedTime += b.runBlock(ctx, d, j, tracedBlock, ids, tp)
		tp.tracedReqs += tracedBlock
		j += tracedBlock
		tp.untracedTime += b.runBlock(ctx, d, j, tracedBlock, nil, tp)
		tp.untracedReqs += tracedBlock
		j += tracedBlock

		traces, err := b.fetchTraces(ctx, d, 2*tracedBlock)
		if err != nil {
			return nil, err
		}
		found := 0
		for _, t := range traces {
			if want[t.ID] && t.Complete {
				tp.traces = append(tp.traces, t)
				found++
			}
		}
		tp.missingTraces += tracedBlock - found
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return tp, nil
}

// phaseBreakdown is the span-derived split of the fully recorded phases.
type phaseBreakdown struct {
	phases                         int
	state, walk, place, firstVisit float64 // ms summed over phases
	covered                        map[int64]int
	slotWaits                      []time.Duration
	dropped                        int64
}

func isWalkSpan(name string) bool {
	switch name {
	case "core/assign", "core/distreq", "core/distreply", "core/generate":
		return true
	}
	return strings.HasPrefix(name, "core/bs/")
}

func isStateSpan(name string) bool {
	return strings.HasPrefix(name, "mm/") || name == "charge:fast-matmul" || name == "charge:schur+shortcut"
}

// breakdown splits each trace's fully recorded phases into phase-state
// build (core/phase_cache, plus phase 0's replayed power-table charges),
// walk levels (assign, distreq, distreply, generate, bs/*), first-visit
// recovery (fve/*), and placement: the rest of the phase, which is the
// submatrix fetch, the matching and the leader's local bookkeeping. A phase
// is fully recorded when the trace dropped nothing or a later phase's span
// was still recorded (spans are kept in start order).
func breakdown(traces []spanTrace) phaseBreakdown {
	pb := phaseBreakdown{covered: map[int64]int{}}
	for _, t := range traces {
		pb.dropped += t.DroppedSpans
		type interval struct{ start, end float64 }
		var phases, caches []interval
		var phaseIdx []int64
		for _, s := range t.Spans {
			switch s.Name {
			case "core/phase":
				phases = append(phases, interval{s.StartUS, s.StartUS + s.DurationUS})
				phaseIdx = append(phaseIdx, s.Attrs["phase"])
			case "core/phase_cache":
				caches = append(caches, interval{s.StartUS, s.StartUS + s.DurationUS})
			case "engine/slot_wait":
				pb.slotWaits = append(pb.slotWaits, time.Duration(s.DurationUS*1e3))
			}
		}
		full := len(phases)
		if t.DroppedSpans > 0 && full > 0 {
			full--
		}
		inCache := func(at float64) bool {
			for _, c := range caches {
				if at >= c.start && at <= c.end {
					return true
				}
			}
			return false
		}
		for p := 0; p < full; p++ {
			ph := phases[p]
			var state, walk, fve float64
			for _, s := range t.Spans {
				if s.StartUS < ph.start || s.StartUS > ph.end {
					continue
				}
				switch {
				case s.Name == "core/phase_cache":
					state += s.DurationUS
				case isStateSpan(s.Name) && !inCache(s.StartUS):
					state += s.DurationUS
				case isWalkSpan(s.Name):
					walk += s.DurationUS
				case strings.HasPrefix(s.Name, "core/fve/"):
					fve += s.DurationUS
				}
			}
			pb.phases++
			pb.covered[phaseIdx[p]]++
			pb.state += state / 1e3
			pb.walk += walk / 1e3
			pb.firstVisit += fve / 1e3
			pb.place += (ph.end - ph.start - state - walk - fve) / 1e3
		}
	}
	sort.Slice(pb.slotWaits, func(i, j int) bool { return pb.slotWaits[i] < pb.slotWaits[j] })
	return pb
}

func (pb phaseBreakdown) perPhase(ms float64) float64 {
	if pb.phases == 0 {
		return 0
	}
	return ms / float64(pb.phases)
}

func (pb phaseBreakdown) coverage() string {
	if len(pb.covered) == 0 {
		return "none"
	}
	idx := make([]int, 0, len(pb.covered))
	for p := range pb.covered {
		idx = append(idx, int(p))
	}
	sort.Ints(idx)
	parts := make([]string, len(idx))
	for i, p := range idx {
		parts[i] = fmt.Sprintf("%d(x%d)", p, pb.covered[int64(p)])
	}
	return strings.Join(parts, " ")
}

// phaseCacheStats reads the serving replica's phase-cache counters.
type phaseCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Bytes     int64 `json:"bytes"`
}

func (b *bench) phaseCache(ctx context.Context, d *daemon) (phaseCacheStats, error) {
	raw, err := b.http.get(ctx, d.url+"/v1/stats")
	if err != nil {
		return phaseCacheStats{}, err
	}
	var s struct {
		Engine struct {
			PhaseCache phaseCacheStats `json:"phase_cache"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return phaseCacheStats{}, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return s.Engine.PhaseCache, nil
}

// promCounters reads the named unlabelled series from a /metrics page.
func (b *bench) promCounters(ctx context.Context, d *daemon, names ...string) (map[string]float64, error) {
	raw, err := b.http.get(ctx, d.url+"/metrics")
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", f[0], err)
			}
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// prepareSeconds is the longest engine/prepare span any replica recorded.
// Each replica traces its first request, and set-up's first sample carries
// an X-Request-ID, so the prepare span is in the ring right after set-up.
func (b *bench) prepareSeconds(ctx context.Context, cl *cluster) (float64, error) {
	var longest float64
	for _, d := range cl.replicas {
		traces, err := b.fetchTraces(ctx, d, 0)
		if err != nil {
			return 0, err
		}
		for _, t := range traces {
			for _, s := range t.Spans {
				if s.Name == "engine/prepare" && s.DurationUS/1e6 > longest {
					longest = s.DurationUS / 1e6
				}
			}
		}
	}
	return longest, nil
}

// pairedRequests times the workload's own request shape over HTTP to d
// and in process through the library facade, on seed bases new to both
// (the catalogue for replay, warm on both). It returns the median per-tree
// difference and the NDJSON bytes per tree.
func (b *bench) pairedRequests(ctx context.Context, d *daemon, sess *spantree.Session, pairs int) (encodeMS, bytesPerTree float64, err error) {
	var diffs []float64
	var bytesTotal, trees int
	for p := 0; p < pairs; p++ {
		req := streamReq{Base: mix(b.seed, domainPaired, p), K: b.w.K, Sampler: b.w.Sampler}
		if b.w.Catalogue > 0 {
			req.Base = b.w.planBase(b.seed, 0, p)
		}
		r := b.http.stream(ctx, d.url, req, "", b.chk.onTree)
		if r.outcome != outcomeOK {
			return 0, 0, fmt.Errorf("paired HTTP request: %s", r.describe())
		}
		start := time.Now()
		if _, err := sess.Collect(ctx, spantree.StreamRequest{K: req.K, Spec: samplerSpec(b.w.Sampler), SeedBase: req.Base}); err != nil {
			return 0, 0, fmt.Errorf("paired in-process collect: %w", err)
		}
		inProc := time.Since(start)
		diffs = append(diffs, ms(r.end.Sub(r.sent)-inProc)/float64(req.K))
		bytesTotal += r.bytes
		trees += r.trees
	}
	return wire.Median(diffs), float64(bytesTotal) / float64(trees), nil
}

// routerOverhead sends the same requests through the router and straight to
// the owner replica, alternating which goes first, and returns the median
// difference per request.
func (b *bench) routerOverhead(ctx context.Context, cl *cluster, owner *daemon, pairs int) (float64, error) {
	var diffs []float64
	for p := 0; p < pairs; p++ {
		req := streamReq{Base: mix(b.seed, domainPaired, 1000+p), K: b.w.K, Sampler: b.w.Sampler}
		send := func(d *daemon) reqResult { return b.http.stream(ctx, d.url, req, "", b.chk.onTree) }
		var via, direct reqResult
		if p%2 == 0 {
			via, direct = send(cl.router), send(owner)
		} else {
			direct, via = send(owner), send(cl.router)
		}
		if via.outcome != outcomeOK || direct.outcome != outcomeOK {
			return 0, fmt.Errorf("router pair: %s / %s", via.describe(), direct.describe())
		}
		diffs = append(diffs, ms(via.end.Sub(via.sent)-direct.end.Sub(direct.sent)))
	}
	return wire.Median(diffs), nil
}

// wilsonMicros times an in-process Collect of the wilson sampler at the
// wilson-router request size.
func (b *bench) wilsonMicros(ctx context.Context, sess *spantree.Session) (float64, error) {
	const k = 256
	var per []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		if _, err := sess.Collect(ctx, spantree.StreamRequest{K: k, Spec: spantree.WilsonSpec(), SeedBase: mix(b.seed, domainPaired, 2000+r)}); err != nil {
			return 0, fmt.Errorf("in-process wilson collect: %w", err)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/1e3/k)
	}
	return wire.Median(per), nil
}

// runLayers runs the in-process probe on the subset samples and checks its
// lines against the daemon's.
func (b *bench) runLayers(ctx context.Context, bin string) (map[string]float64, error) {
	var seeds []string
	var want []treeKey
	for _, req := range b.subset() {
		for i := req.Start; i < req.Start+req.K; i++ {
			seeds = append(seeds, fmt.Sprintf("%d:%d", req.Base, i))
			want = append(want, treeKey{req.Base, i})
		}
	}
	passes := "1"
	if b.w.Catalogue > 0 {
		passes = "2"
	}
	cmd := exec.CommandContext(ctx, bin, "-seeds", strings.Join(seeds, ","), "-passes", passes)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w: %s", err, stderr.String())
	}
	var out struct {
		Metrics map[string]float64 `json:"metrics"`
		Lines   map[string]string  `json:"lines"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("decoding layer probe output: %w", err)
	}
	got := map[int][]byte{}
	wantLines := map[int][]byte{}
	for n, k := range want {
		got[n] = []byte(out.Lines[fmt.Sprintf("%d:%d", k.base, k.index)])
		wantLines[n] = b.chk.linesOf(streamReq{Base: k.base, Start: k.index, K: 1})[k.index]
	}
	b.compareLines("in-process core with a counting matching sampler vs daemon", got, wantLines)
	return out.Metrics, nil
}

// traced is the --trace 1 run.
func (b *bench) traced(ctx context.Context, layersBin string) error {
	for _, r := range b.subset() {
		b.chk.keepBase(r.Base)
	}
	cl, _, err := b.setup(ctx, true)
	if err != nil {
		return err
	}
	defer cl.stop()
	owner, err := cl.owner(ctx, b.http)
	if err != nil {
		return err
	}
	prepareS, err := b.prepareSeconds(ctx, cl)
	if err != nil {
		return err
	}
	// The subset requests go through the front, as in the timed run.
	if b.w.Catalogue == 0 {
		for _, req := range b.subset() {
			if r := b.http.stream(ctx, cl.front().url, req, "", b.chk.onTree); r.outcome != outcomeOK {
				return fmt.Errorf("subset request: %s", r.describe())
			}
		}
	}
	if err := b.checkSubset(ctx, cl); err != nil {
		return err
	}

	routerNames := []string{"spantreed_router_failovers_total", "spantreed_router_retries_total"}
	var router0 map[string]float64
	if cl.router != nil {
		if router0, err = b.promCounters(ctx, cl.router, routerNames...); err != nil {
			return err
		}
	}
	pc0, err := b.phaseCache(ctx, owner)
	if err != nil {
		return err
	}
	tp, err := b.runTracedPass(ctx, owner)
	if err != nil {
		return err
	}
	pc1, err := b.phaseCache(ctx, owner)
	if err != nil {
		return err
	}

	g, err := buildGraph()
	if err != nil {
		return err
	}
	sess, err := spantree.Prepare(g)
	if err != nil {
		return fmt.Errorf("preparing in-process session: %w", err)
	}
	pairs := 4
	if b.w.Sampler == "wilson" {
		pairs = 20
	}
	if b.w.Catalogue > 0 {
		pairs = b.w.Catalogue
		// Warm the in-process phase cache like the daemon's.
		for _, req := range b.subset() {
			if _, err := sess.Collect(ctx, spantree.StreamRequest{K: req.K, Spec: samplerSpec(b.w.Sampler), SeedBase: req.Base}); err != nil {
				return err
			}
		}
	}
	encodeMS, bytesPerTree, err := b.pairedRequests(ctx, owner, sess, pairs)
	if err != nil {
		return err
	}
	var proxyMS float64
	routerDelta := map[string]float64{}
	if cl.router != nil {
		if proxyMS, err = b.routerOverhead(ctx, cl, owner, 20); err != nil {
			return err
		}
		router1, err := b.promCounters(ctx, cl.router, routerNames...)
		if err != nil {
			return err
		}
		for _, n := range routerNames {
			routerDelta[n] = router1[n] - router0[n]
		}
	}
	wilsonUS, err := b.wilsonMicros(ctx, sess)
	if err != nil {
		return err
	}
	probe := map[string]float64{}
	if b.w.Sampler == "phase" {
		if probe, err = b.runLayers(ctx, layersBin); err != nil {
			return err
		}
	}
	cl.stop()

	pb := breakdown(tp.traces)
	traced := float64(len(tp.traces))
	var rounds, supersteps, words float64
	sub := b.subset()
	subTrees := 0
	for _, req := range sub {
		for _, raw := range b.chk.linesOf(req) {
			var l wire.Line
			if err := json.Unmarshal(raw, &l); err != nil {
				return err
			}
			rounds += float64(l.Rounds)
			supersteps += float64(l.Supersteps)
			words += float64(l.TotalWords)
			subTrees++
		}
	}
	hitRatio := 0.0
	if lookups := (pc1.Hits - pc0.Hits) + (pc1.Misses - pc0.Misses); lookups > 0 {
		hitRatio = float64(pc1.Hits-pc0.Hits) / float64(lookups)
	}
	overhead := 0.0
	if tp.tracedReqs > 0 && tp.untracedReqs > 0 && tp.untracedTime > 0 {
		overhead = (tp.tracedTime.Seconds()/float64(tp.tracedReqs))/(tp.untracedTime.Seconds()/float64(tp.untracedReqs)) - 1
	}
	dropped := 0.0
	if traced > 0 {
		dropped = float64(pb.dropped) / traced
	}
	recordedPhases := 0.0
	if traced > 0 {
		recordedPhases = float64(pb.phases) / traced
	}

	spans := "/v1/traces spans of the traced k=1 requests"
	layers := []layerMetric{
		{"spantreed.encode_ms_per_tree", encodeMS, "ms", fmt.Sprintf("HTTP minus in-process Session.Collect, median of %d paired k=%d requests", pairs, b.w.K)},
		{"spantreed.bytes_per_tree", bytesPerTree, "bytes", "NDJSON tree-line bytes of the paired requests"},
		{"router.proxy_ms_per_request", proxyMS, "ms", "router minus direct-to-owner request time, median of 20 pairs (0 without a router)"},
		{"router.failovers", routerDelta["spantreed_router_failovers_total"], "count", "router /metrics delta over the traced run"},
		{"router.retries", routerDelta["spantreed_router_retries_total"], "count", "router /metrics delta over the traced run"},
		{"engine.slot_wait_ms_p50", ms(quantile(pb.slotWaits, 0.5)), "ms", "engine/slot_wait " + spans},
		{"engine.slot_wait_ms_p90", ms(quantile(pb.slotWaits, 0.9)), "ms", "engine/slot_wait " + spans},
		{"engine.prepare_s", prepareS, "s", "engine/prepare span of set-up's first sample"},
		{"engine.rejected", float64(tp.rejected), "count", "429 and 504 answers in the traced pass"},
		{"core.ms_per_tree", probe["core.ms_per_tree"], "ms", "in-process Prepared.SampleWith, median over the subset samples"},
		{"core.phases_per_tree", probe["core.phases_per_tree"], "count", "Stats.Phases of the subset samples"},
		{"core.recorded_phases_per_tree", recordedPhases, "count", "fully recorded core/phase spans per traced tree"},
		{"core.phase_state_ms_per_phase", pb.perPhase(pb.state), "ms", "core/phase_cache (+ phase-0 mm/charge) " + spans},
		{"core.walk_levels_ms_per_phase", pb.perPhase(pb.walk), "ms", "core/assign, distreq, distreply, generate, bs/* " + spans},
		{"core.placement_ms_per_phase", pb.perPhase(pb.place), "ms", "core/phase minus the other three: submatrix fetch, matching, leader bookkeeping; " + spans},
		{"core.first_visit_ms_per_phase", pb.perPhase(pb.firstVisit), "ms", "core/fve/* " + spans},
		{"schur.shortcut_ms", probe["schur.shortcut_ms"], "ms", "ShortcutTransitionWorkers per built phase at the subset samples' |S|"},
		{"mm.dyadic_ms", probe["mm.dyadic_ms"], "ms", "mm.DyadicTable with mm.Fast{} per built phase at the same |S|"},
		{"mm.squarings_per_phase", probe["mm.squarings_per_phase"], "count", "squarings in one dyadic table"},
		{"matrix.mul_gflops", probe["matrix.mul_gflops"], "GFLOP/s", "2d^3 flops per squaring over the dyadic table time"},
		{"matching.calls_per_tree", probe["matching.calls_per_tree"], "count", "counting matching.Sampler in core.Config.Matching"},
		{"matching.us_per_call", probe["matching.us_per_call"], "us", "counting matching.Sampler in core.Config.Matching"},
		{"phasecache.hit_ratio", hitRatio, "ratio", "/v1/stats phase_cache delta over the traced pass"},
		{"phasecache.resident_mb", float64(pc1.Bytes) / (1 << 20), "MiB", "/v1/stats phase_cache bytes after the traced pass"},
		{"phasecache.evictions", float64(pc1.Evictions - pc0.Evictions), "count", "/v1/stats phase_cache delta over the traced pass"},
		{"clique.rounds_per_tree", rounds / float64(subTrees), "count", "NDJSON stats of the subset samples"},
		{"clique.supersteps_per_tree", supersteps / float64(subTrees), "count", "NDJSON stats of the subset samples"},
		{"clique.words_per_tree", words / float64(subTrees), "count", "NDJSON stats of the subset samples"},
		{"aldous.wilson_us_per_tree", wilsonUS, "us", "in-process Session.Collect of 256 wilson trees, median of 5"},
		{"obs.trace_overhead", overhead, "ratio", "traced over untraced time per k=1 request, alternating blocks, minus 1"},
		{"obs.dropped_spans_per_tree", dropped, "count", "dropped_spans of the traced k=1 requests"},
	}
	if traced == 0 {
		return errors.New("no traced request could be read back from /v1/traces")
	}

	metrics := map[string]metric{}
	notes := []string{
		fmt.Sprintf("traced run of %s seed %d: %d traced and %d untraced k=1 requests to %s; %d traces read back, %d missing",
			b.w.Name, b.seed, tp.tracedReqs, tp.untracedReqs, owner.url, len(tp.traces), tp.missingTraces),
		fmt.Sprintf("dropped spans: %d over %d traces (%.1f per tree); span-derived core numbers cover %d fully recorded phases, by phase index: %s",
			pb.dropped, len(tp.traces), dropped, pb.phases, pb.coverage()),
		fmt.Sprintf("phase cache over the traced pass: %d hits, %d misses, %d evictions",
			pc1.Hits-pc0.Hits, pc1.Misses-pc0.Misses, pc1.Evictions-pc0.Evictions),
	}
	for _, l := range layers {
		metrics[l.name] = metric{l.value, l.unit}
		notes = append(notes, fmt.Sprintf("%-32s %12.4f %-7s dropped_spans/tree=%.1f  source: %s", l.name, l.value, l.unit, dropped, l.source))
	}
	correct := b.chk.ok()
	for _, e := range b.chk.errors() {
		notes = append(notes, "CHECK FAILED: "+e)
	}
	report(correct, tp.attempted, tp.failed, metrics, notes)
	if !correct {
		return errors.New("output check failed")
	}
	return nil
}
