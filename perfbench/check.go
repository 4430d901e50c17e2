package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	spantree "repro"
	"repro/perfbench/wire"
)

// treeKey identifies one sample: the tree at index i of seed base b is a
// pure function of (graph, sampler, b, i).
type treeKey struct {
	base  uint64
	index int
}

// checker validates every tree the daemons return and keeps the lines the
// byte-for-byte comparisons need.
type checker struct {
	n   int
	adj []bool // adj[u*n+v]: {u, v} is an edge of the reference graph

	validated      atomic.Int64
	compared       atomic.Int64
	goldenCompared atomic.Int64

	mu     sync.Mutex
	errs   []string
	keep   map[uint64]bool    // seed bases whose lines are kept
	kept   map[treeKey][]byte // kept lines, first occurrence
	ref    map[treeKey][]byte // reference lines every later copy must equal
	golden map[treeKey]bool   // references that come from golden.ndjson
	nFails int
}

func newChecker(g *spantree.Graph) *checker {
	n := g.N()
	c := &checker{n: n, adj: make([]bool, n*n), keep: map[uint64]bool{}, kept: map[treeKey][]byte{}, ref: map[treeKey][]byte{}, golden: map[treeKey]bool{}}
	for _, e := range g.Edges() {
		c.adj[e.U*n+e.V] = true
		c.adj[e.V*n+e.U] = true
	}
	return c
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nFails++
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nFails == 0
}

func (c *checker) errors() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.errs...)
}

// keepBase asks for every line of seed base b to be kept.
func (c *checker) keepBase(b uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keep[b] = true
}

// onTree validates a tree line, compares it with a reference line for the
// same sample if one exists, and keeps it if its base was asked for.
func (c *checker) onTree(req streamReq, line *wire.Line, raw []byte) {
	c.validate(line.Tree)
	k := treeKey{req.Base, *line.Index}
	c.mu.Lock()
	ref, hasRef := c.ref[k]
	golden := c.golden[k]
	if c.keep[req.Base] {
		if _, dup := c.kept[k]; !dup {
			c.kept[k] = append([]byte(nil), raw...)
		}
	}
	c.mu.Unlock()
	if !hasRef {
		return
	}
	c.compared.Add(1)
	what := "the reference"
	if golden {
		c.goldenCompared.Add(1)
		what = "golden.ndjson (if the change is meant to alter output, regenerate it: " + goldenCommand + ")"
	}
	if !bytes.Equal(ref, raw) {
		c.fail("%s base %d index %d: line differs from %s\n  got  %.160s\n  want %.160s", req.Sampler, k.base, k.index, what, raw, ref)
	}
}

// recordReference is onTree for the replay warm pass: the first copy of a
// line becomes the reference every later copy (including the warm passes of
// later set-up rounds, in fresh processes) must equal byte for byte.
func (c *checker) recordReference(req streamReq, line *wire.Line, raw []byte) {
	k := treeKey{req.Base, *line.Index}
	c.mu.Lock()
	_, has := c.ref[k]
	if !has {
		c.ref[k] = append([]byte(nil), raw...)
	}
	c.mu.Unlock()
	if !has {
		c.validate(line.Tree)
		return
	}
	c.onTree(req, line, raw)
}

// golden.ndjson pins the program's output across changes. It holds the
// lines of a few fixed requests whose seed bases do not depend on the
// workload seed: per sampler, set-up's first sample and one request of each
// workload's size. The other byte-for-byte checks compare the daemons with
// in-process sampling built from the same source, which a change to the
// sampler itself moves in step; this file does not move. Each request
// starts with a header line {"golden":{...}}, followed by the daemon's tree
// lines for it, byte for byte.
//
//go:embed golden.ndjson
var goldenNDJSON []byte

// goldenCommand regenerates golden.ndjson from the library in process.
const goldenCommand = "bash perfbench/run.sh -write-golden perfbench/golden.ndjson"

type goldenHeader struct {
	Sampler string `json:"sampler"`
	Base    uint64 `json:"seed_base"`
	K       int    `json:"k"`
}

// setupRequest is set-up's first sample; its seed base is the same in every
// run, so set-up does identical work whatever the workload seed.
func setupRequest(sampler string) streamReq {
	return streamReq{Base: mix(0, domainWarm, 0), K: 1, Sampler: sampler}
}

// goldenRequests are the requests golden.ndjson holds for a sampler.
func goldenRequests(sampler string) []streamReq {
	out := []streamReq{setupRequest(sampler)}
	seen := map[int]bool{}
	for _, w := range cfg.Workloads {
		if w.Sampler == sampler && !seen[w.K] {
			seen[w.K] = true
			out = append(out, streamReq{Base: mix(0, domainGolden, w.K), K: w.K, Sampler: sampler})
		}
	}
	return out
}

// loadGolden makes the sampler's golden lines references that every copy
// the daemons send must equal. It fails if golden.ndjson lacks any of them.
func (c *checker) loadGolden(sampler string) error {
	want := map[streamReq]int{}
	for _, r := range goldenRequests(sampler) {
		want[r] = 0
	}
	var cur streamReq
	for _, raw := range bytes.Split(goldenNDJSON, []byte("\n")) {
		if len(raw) == 0 {
			continue
		}
		var l struct {
			Golden *goldenHeader `json:"golden"`
			wire.Line
		}
		if err := json.Unmarshal(raw, &l); err != nil {
			return fmt.Errorf("golden.ndjson: %w", err)
		}
		if h := l.Golden; h != nil {
			cur = streamReq{Base: h.Base, K: h.K, Sampler: h.Sampler}
			continue
		}
		if _, ok := want[cur]; !ok || l.Index == nil {
			continue
		}
		k := treeKey{cur.Base, *l.Index}
		c.ref[k] = raw
		c.golden[k] = true
		want[cur]++
	}
	for r, n := range want {
		if n != r.K {
			return fmt.Errorf("golden.ndjson has %d lines for %s seed base %d k=%d, want %d; regenerate it: %s", n, r.Sampler, r.Base, r.K, r.K, goldenCommand)
		}
	}
	return nil
}

// writeGolden samples every golden request in process and writes
// golden.ndjson to path.
func writeGolden(ctx context.Context, path string) error {
	g, err := buildGraph()
	if err != nil {
		return err
	}
	sess, err := spantree.Prepare(g)
	if err != nil {
		return fmt.Errorf("preparing in-process session: %w", err)
	}
	var buf bytes.Buffer
	done := map[string]bool{}
	for _, w := range cfg.Workloads {
		if done[w.Sampler] {
			continue
		}
		done[w.Sampler] = true
		for _, req := range goldenRequests(w.Sampler) {
			lines, err := inProcessLines(ctx, sess, samplerSpec(req.Sampler), req)
			if err != nil {
				return err
			}
			hdr, err := json.Marshal(map[string]goldenHeader{"golden": {req.Sampler, req.Base, req.K}})
			if err != nil {
				return err
			}
			buf.Write(append(hdr, '\n'))
			for i := 0; i < req.K; i++ {
				buf.Write(append(lines[i], '\n'))
			}
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// validate checks that an encoded tree ("u-v;u-v;...") is a spanning tree
// of the reference graph: n-1 graph edges and no cycle.
func (c *checker) validate(tree string) {
	c.validated.Add(1)
	if err := c.spanningTree(tree); err != nil {
		c.fail("invalid tree: %v: %.120s", err, tree)
	}
}

func (c *checker) spanningTree(tree string) error {
	parent := make([]int, c.n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	edges := 0
	for _, e := range strings.Split(tree, ";") {
		us, vs, ok := strings.Cut(e, "-")
		if !ok {
			return fmt.Errorf("malformed edge %q", e)
		}
		u, err1 := strconv.Atoi(us)
		v, err2 := strconv.Atoi(vs)
		if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= c.n || v >= c.n {
			return fmt.Errorf("malformed edge %q", e)
		}
		if !c.adj[u*c.n+v] {
			return fmt.Errorf("edge %d-%d is not in the graph", u, v)
		}
		ru, rv := find(u), find(v)
		if ru == rv {
			return fmt.Errorf("edge %d-%d closes a cycle", u, v)
		}
		parent[ru] = rv
		edges++
	}
	if edges != c.n-1 {
		return fmt.Errorf("%d edges, want %d", edges, c.n-1)
	}
	return nil
}

// subsetRequests returns the requests whose every line is checked byte for
// byte: the catalogue for replay, else the first requests of the plan.
func (b *bench) subset() []streamReq {
	n := subsetRequests
	if b.w.Catalogue > 0 {
		n = b.w.Catalogue
	}
	out := make([]streamReq, n)
	for j := range out {
		out[j] = streamReq{Base: b.w.planBase(b.seed, 0, j), K: b.w.K, Sampler: b.w.Sampler}
	}
	return out
}

// inProcessLines samples req in this process through the library facade
// and encodes each result exactly as spantreed does.
func inProcessLines(ctx context.Context, sess *spantree.Session, spec spantree.SamplerSpec, req streamReq) (map[int][]byte, error) {
	res, err := sess.Collect(ctx, spantree.StreamRequest{K: req.K, Spec: spec, SeedBase: req.Base, StartIndex: req.Start})
	if err != nil {
		return nil, fmt.Errorf("in-process collect of base %d: %w", req.Base, err)
	}
	out := make(map[int][]byte, req.K)
	for i, t := range res.Trees {
		idx := req.Start + i
		st := res.Stats[i]
		raw, err := json.Marshal(wire.Line{Index: &idx, Tree: t.Encode(), Rounds: st.Rounds, Supersteps: st.Supersteps, TotalWords: st.TotalWords, WalkSteps: st.WalkSteps})
		if err != nil {
			return nil, err
		}
		out[idx] = raw
	}
	return out, nil
}

// checkSubset sends the workload sampler's golden requests through the
// front, to be compared with golden.ndjson. It then compares the kept lines
// of the subset requests byte for byte with an in-process Session.Collect
// of the same requests, and, behind a router, with the same requests sent
// straight to each replica. The subset lines were kept while the timed loop
// ran (the first plan requests, or the replay catalogue's warm pass).
func (b *bench) checkSubset(ctx context.Context, cl *cluster) error {
	for _, req := range goldenRequests(b.w.Sampler) {
		if r := b.http.stream(ctx, cl.front().url, req, "", b.chk.onTree); r.outcome != outcomeOK {
			return fmt.Errorf("golden request: %s", r.describe())
		}
	}
	g, err := buildGraph()
	if err != nil {
		return err
	}
	sess, err := spantree.Prepare(g)
	if err != nil {
		return fmt.Errorf("preparing in-process session: %w", err)
	}
	for _, req := range b.subset() {
		want, err := inProcessLines(ctx, sess, samplerSpec(b.w.Sampler), req)
		if err != nil {
			return err
		}
		got := b.chk.linesOf(req)
		b.compareLines(fmt.Sprintf("daemon vs in-process, base %d", req.Base), got, want)
		if cl.router == nil {
			continue
		}
		for i, d := range cl.replicas {
			direct := map[int][]byte{}
			r := b.http.stream(ctx, d.url, req, "", func(_ streamReq, line *wire.Line, raw []byte) {
				b.chk.validate(line.Tree)
				direct[*line.Index] = append([]byte(nil), raw...)
			})
			if r.outcome != outcomeOK {
				return fmt.Errorf("direct request to replica %d: %s", i, r.describe())
			}
			b.compareLines(fmt.Sprintf("router vs replica %d, base %d", i, req.Base), got, direct)
		}
	}
	return nil
}

// linesOf returns the kept lines of req, or its reference lines.
func (c *checker) linesOf(req streamReq) map[int][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[int][]byte{}
	for i := req.Start; i < req.Start+req.K; i++ {
		k := treeKey{req.Base, i}
		if raw, ok := c.kept[k]; ok {
			out[i] = raw
		} else if raw, ok := c.ref[k]; ok {
			out[i] = raw
		}
	}
	return out
}

func (b *bench) compareLines(what string, got, want map[int][]byte) {
	if len(got) != len(want) {
		b.chk.fail("%s: %d lines, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		b.chk.compared.Add(1)
		if g, ok := got[i]; !ok || !bytes.Equal(g, w) {
			b.chk.fail("%s index %d differs\n  got  %.160s\n  want %.160s", what, i, g, w)
		}
	}
}
