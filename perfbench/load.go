package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/perfbench/wire"
)

// httpClient is the load generator's one keep-alive HTTP client.
type httpClient struct{ c *http.Client }

func newHTTPClient() *httpClient {
	return &httpClient{c: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}}
}

func (h *httpClient) post(ctx context.Context, url, body string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (h *httpClient) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return raw, nil
}

// streamReq is one /v1/graphs/{key}/stream request.
type streamReq struct {
	Base    uint64
	Start   int
	K       int
	Sampler string
}

func (r streamReq) body() string {
	return fmt.Sprintf(`{"k":%d,"sampler":%q,"seed_base":%d,"start_index":%d}`, r.K, r.Sampler, r.Base, r.Start)
}

// outcome classifies how a request ended; everything but outcomeOK is a
// failure.
type outcome int

const (
	outcomeOK outcome = iota
	outcome429
	outcome504
	outcomeTransport
	outcomeNoDone
	outcomeOtherStatus
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "http_429", "http_504", "transport_error", "missing_done", "other_status"}

// reqResult is what one stream request produced.
type reqResult struct {
	outcome   outcome
	status    int
	detail    string
	sent      time.Time
	firstTree time.Time
	end       time.Time
	trees     int
	bytes     int
	window    int // the closed loop's sub-window the request was sent in
}

func (r reqResult) describe() string {
	return fmt.Sprintf("%s (status %d) %s", outcomeNames[r.outcome], r.status, r.detail)
}

// treeFunc receives every tree line: the request, its parsed form and the
// raw line bytes without the trailing newline.
type treeFunc func(req streamReq, line *wire.Line, raw []byte)

// stream sends one stream request to base and reads it to its terminal
// line. reqID, when set, is sent as X-Request-ID, which forces a trace.
func (h *httpClient) stream(ctx context.Context, base string, sr streamReq, reqID string, onTree treeFunc) reqResult {
	res := reqResult{sent: time.Now()}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/graphs/"+cfg.Graph.Key+"/stream", strings.NewReader(sr.body()))
	if err != nil {
		res.outcome, res.detail = outcomeTransport, err.Error()
		return res
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := h.c.Do(req)
	if err != nil {
		res.outcome, res.detail, res.end = outcomeTransport, err.Error(), time.Now()
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		res.outcome = outcome429
	case http.StatusGatewayTimeout:
		res.outcome = outcome504
	default:
		res.outcome = outcomeOtherStatus
	}
	if res.outcome != outcomeOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // for the error report only
		res.detail, res.end = string(raw), time.Now()
		return res
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	seen := make([]bool, sr.K)
	for {
		raw, err := rd.ReadBytes('\n')
		if len(raw) > 0 {
			now := time.Now()
			raw = bytes.TrimSuffix(raw, []byte("\n"))
			var line wire.Line
			if jerr := json.Unmarshal(raw, &line); jerr != nil {
				res.outcome, res.detail, res.end = outcomeNoDone, "undecodable line: "+jerr.Error(), now
				return res
			}
			switch {
			case line.Index != nil:
				i := *line.Index - sr.Start
				if i < 0 || i >= sr.K || seen[i] {
					res.outcome, res.detail, res.end = outcomeNoDone, fmt.Sprintf("unexpected or repeated index %d", *line.Index), now
					return res
				}
				seen[i] = true
				if res.trees == 0 {
					res.firstTree = now
				}
				res.trees++
				res.bytes += len(raw) + 1
				onTree(sr, &line, raw)
			case line.Done:
				res.end = now
				if res.trees != sr.K || line.Samples != sr.K {
					res.outcome, res.detail = outcomeNoDone, fmt.Sprintf("done after %d of %d trees", res.trees, sr.K)
				}
				return res
			default:
				res.outcome, res.detail, res.end = outcomeNoDone, "terminal error line: "+line.Error, now
				return res
			}
		}
		if err != nil {
			res.end = time.Now()
			res.outcome = outcomeNoDone
			if !errors.Is(err, io.EOF) {
				res.outcome = outcomeTransport
			}
			res.detail = "stream ended without a done line: " + err.Error()
			return res
		}
	}
}

// loopResult aggregates the timed closed loop.
type loopResult struct {
	results   []reqResult
	trees     []int64   // per sub-window: trees whose line arrived inside it
	cpu       []float64 // per sub-window: daemon CPU seconds spent inside it
	speeds    []float64 // per sub-window: machine speed relative to the reference (see speed.go)
	attempted int
	failed    int
	byOutcome [numOutcomes]int
}

// closedLoop runs the workload's clients for the window: each client sends
// its next request only after the previous one ended. The window is split
// into sub-windows with a calibration of the machine's speed between them;
// a replay workload also gives each sub-window its own catalogue, warmed
// untimed first. Requests still in flight at a sub-window's deadline run to
// completion; their trees count toward throughput only if they arrived
// inside it.
func (b *bench) closedLoop(ctx context.Context, cl *cluster, cal *calibrator) (*loopResult, error) {
	out := &loopResult{}
	var mu sync.Mutex
	url := cl.front().url
	span := b.window / subWindows
	next := 0 // plan index of the next request, across sub-windows
	var cals []float64
	for e := 0; e < subWindows; e++ {
		if e > 0 {
			if err := b.warm(ctx, cl, e); err != nil {
				return nil, err
			}
		}
		speed, err := cl.calibrate(cal)
		if err != nil {
			return nil, err
		}
		cals = append(cals, speed)
		cpu0, err := cl.cpuSeconds()
		if err != nil {
			return nil, err
		}
		var issued, trees atomic.Int64
		var wg sync.WaitGroup
		deadline := time.Now().Add(span)
		onTree := func(req streamReq, line *wire.Line, raw []byte) {
			if !time.Now().After(deadline) {
				trees.Add(1)
			}
			b.chk.onTree(req, line, raw)
		}
		for c := 0; c < b.w.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) && ctx.Err() == nil {
					j := next + int(issued.Add(1)-1)
					req := streamReq{Base: b.w.planBase(b.seed, e, j), K: b.w.K, Sampler: b.w.Sampler}
					r := b.http.stream(ctx, url, req, "", onTree)
					r.window = e
					mu.Lock()
					out.results = append(out.results, r)
					mu.Unlock()
				}
			}()
		}
		// CPU is read at the deadline itself, while the clients are still busy.
		time.Sleep(time.Until(deadline))
		cpu1, err := cl.cpuSeconds()
		wg.Wait()
		if err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("closed loop: %w", ctx.Err())
		}
		next += int(issued.Load())
		out.cpu = append(out.cpu, cpu1-cpu0)
		out.trees = append(out.trees, trees.Load())
	}
	speed, err := cl.calibrate(cal)
	if err != nil {
		return nil, err
	}
	cals = append(cals, speed)
	for e := range out.trees {
		out.speeds = append(out.speeds, (cals[e]+cals[e+1])/2)
	}
	for _, r := range out.results {
		out.attempted++
		out.byOutcome[r.outcome]++
		if r.outcome != outcomeOK {
			out.failed++
		}
	}
	return out, nil
}

// totals returns trees and daemon CPU seconds over the window, raw and
// scaled to speed 1.
func (l *loopResult) totals() (trees, scaledTrees, cpu, scaledCPU float64) {
	for e, n := range l.trees {
		trees += float64(n)
		scaledTrees += float64(n) / l.speeds[e]
		cpu += l.cpu[e]
		scaledCPU += l.cpu[e] * l.speeds[e]
	}
	return trees, scaledTrees, cpu, scaledCPU
}

// latencies returns the sorted durations from send to the time f picks, of
// successful requests, scaled to speed 1 by the speed of their
// sub-window (unscaled if raw); failed requests carry no latency (they are
// counted in failed_share).
func (l *loopResult) latencies(raw bool, f func(reqResult) time.Time) []time.Duration {
	var d []time.Duration
	for _, r := range l.results {
		if r.outcome != outcomeOK {
			continue
		}
		lat := f(r).Sub(r.sent)
		if !raw {
			lat = scaleTime(lat, l.speeds[r.window])
		}
		d = append(d, lat)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func (l *loopResult) failedShare() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

func (l *loopResult) failureLine() string {
	parts := []string{fmt.Sprintf("requests sent %d, succeeded %d, failed %d", l.attempted, l.byOutcome[outcomeOK], l.failed)}
	for o := outcome429; o < numOutcomes; o++ {
		parts = append(parts, fmt.Sprintf("%s %d", outcomeNames[o], l.byOutcome[o]))
	}
	return strings.Join(parts, ", ")
}
