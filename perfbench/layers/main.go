// Command layers is perfbench's in-process layer probe. It samples the
// benchmark's reference trees through internal/core with a counting
// matching sampler, then times the Schur shortcut and the dyadic power table
// at each phase size those trees walked, and prints one JSON object:
//
//	{"metrics": {"core.ms_per_tree": ..., ...}, "lines": {"<base>:<index>": "<NDJSON line>"}}
//
// The lines are encoded exactly as spantreed encodes a stream line, so the
// caller can check that the wrapped matching sampler left every output byte
// unchanged. The probe lives apart from the load generator because it
// imports internal packages; a change to them breaks only the traced run.
//
//	layers -seeds 12345:0,12345:1 -passes 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/matrix"
	"repro/internal/mm"
	"repro/internal/prng"
	"repro/internal/schur"
	"repro/perfbench/wire"
)

// countingMatcher delegates to another matching.Sampler and counts calls
// and time. Nothing in core type-asserts the matching sampler, so wrapping
// it leaves the sampled trees unchanged (the caller checks that).
type countingMatcher struct {
	inner matching.Sampler
	calls int
	busy  time.Duration
}

func (m *countingMatcher) Name() string { return m.inner.Name() }

func (m *countingMatcher) Sample(w *matrix.Matrix, src *prng.Source) ([]int, error) {
	start := time.Now()
	perm, err := m.inner.Sample(w, src)
	m.busy += time.Since(start)
	m.calls++
	return perm, err
}

// The benchmark graph: the expander family at n=96, graph seed 3, as
// perfbench/design.json registers it with the daemons. The caller compares
// the probe's lines with the daemon's byte for byte, so a probe that drifted
// to another graph fails the run.
const (
	graphFamily = "expander"
	graphN      = 96
	graphSeed   = 3
)

type seedRef struct {
	base  uint64
	index int
}

func main() {
	var (
		seedList = flag.String("seeds", "", "comma-separated base:index samples to draw")
		passes   = flag.Int("passes", 1, "passes over the seeds; only the last is timed (2 measures a warm phase cache)")
	)
	flag.Parse()
	if err := run(*seedList, *passes); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func parseSeeds(s string) ([]seedRef, error) {
	var out []seedRef
	for _, part := range strings.Split(s, ",") {
		b, i, ok := strings.Cut(part, ":")
		base, err1 := strconv.ParseUint(b, 10, 64)
		idx, err2 := strconv.Atoi(i)
		if !ok || err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad seed %q (want base:index)", part)
		}
		out = append(out, seedRef{base, idx})
	}
	return out, nil
}

func run(seedList string, passes int) error {
	seeds, err := parseSeeds(seedList)
	if err != nil {
		return err
	}
	const n = graphN
	g, err := graph.FromFamily(graphFamily, n, prng.New(graphSeed))
	if err != nil {
		return err
	}
	cm := &countingMatcher{inner: matching.Auto{}}
	// The configuration spantreed's engine prepares with, plus the
	// counting matcher.
	p, err := core.Prepare(g, core.Config{PhaseCacheMB: core.DefaultPhaseCacheMB, Matching: cm})
	if err != nil {
		return fmt.Errorf("preparing: %w", err)
	}

	lines := map[string]string{}
	var perTree []float64
	var phases, matchCalls int
	var matchBusy time.Duration
	sizes := map[int]int{} // phase |S| -> phases built at that size
	for pass := 0; pass < passes; pass++ {
		last := pass == passes-1
		cm.calls, cm.busy = 0, 0
		for _, s := range seeds {
			start := time.Now()
			tree, st, err := p.SampleWith(prng.New(s.base).Split(uint64(s.index)), core.SampleOpts{})
			d := time.Since(start)
			if err != nil {
				return fmt.Errorf("sampling %d:%d: %w", s.base, s.index, err)
			}
			if !last {
				continue
			}
			perTree = append(perTree, float64(d.Nanoseconds())/1e6)
			phases += st.Phases
			visited := 1
			for ph, nv := range st.NewVertices {
				if ph > 0 { // phase 0 walks G itself from Prepare's state
					sizes[n-visited+1]++
				}
				visited += nv
			}
			idx := s.index
			raw, err := json.Marshal(wire.Line{Index: &idx, Tree: tree.Encode(), Rounds: st.Rounds, Supersteps: st.Supersteps, TotalWords: st.TotalWords, WalkSteps: st.WalkSteps})
			if err != nil {
				return err
			}
			lines[fmt.Sprintf("%d:%d", s.base, s.index)] = string(raw)
		}
		matchCalls, matchBusy = cm.calls, cm.busy
	}

	maxExp := int(math.Log2(float64(p.Config().WalkLength)) + 0.5)
	var shortcutMS, dyadicMS, flops, built float64
	squarings := 0
	for d, count := range sizes {
		members := make([]int, d)
		for i := range members {
			members[i] = i
		}
		sub, err := schur.NewSubset(n, members)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := schur.ShortcutTransitionWorkers(g, sub, 0); err != nil {
			return fmt.Errorf("shortcut at |S|=%d: %w", d, err)
		}
		shortcutMS += float64(count) * float64(time.Since(start).Nanoseconds()) / 1e6
		smat, err := schur.TransitionWorkers(g, sub, 0)
		if err != nil {
			return fmt.Errorf("transition at |S|=%d: %w", d, err)
		}
		start = time.Now()
		pd, err := mm.DyadicTable(clique.MustNew(n), mm.Fast{}, smat, maxExp, 0, clique.FidelityCharged)
		if err != nil {
			return fmt.Errorf("dyadic table at |S|=%d: %w", d, err)
		}
		dyadicMS += float64(count) * float64(time.Since(start).Nanoseconds()) / 1e6
		squarings = len(pd.Pows) - 1
		flops += float64(count) * 2 * math.Pow(float64(d), 3) * float64(squarings)
		built += float64(count)
	}

	trees := float64(len(perTree))
	metrics := map[string]float64{
		"core.ms_per_tree":        wire.Median(perTree),
		"core.phases_per_tree":    float64(phases) / trees,
		"matching.calls_per_tree": float64(matchCalls) / trees,
		"matching.us_per_call":    0,
		"schur.shortcut_ms":       0,
		"mm.dyadic_ms":            0,
		"mm.squarings_per_phase":  float64(squarings),
		"matrix.mul_gflops":       0,
	}
	if matchCalls > 0 {
		metrics["matching.us_per_call"] = float64(matchBusy.Nanoseconds()) / 1e3 / float64(matchCalls)
	}
	if built > 0 {
		metrics["schur.shortcut_ms"] = shortcutMS / built
		metrics["mm.dyadic_ms"] = dyadicMS / built
		metrics["matrix.mul_gflops"] = flops / (dyadicMS / 1e3) / 1e9
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{"metrics": metrics, "lines": lines})
}
