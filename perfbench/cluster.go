package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one spantreed process on a loopback port.
type daemon struct {
	url    string
	cmd    *exec.Cmd
	exited chan struct{}
	log    *tailBuffer
}

// cluster is the set of daemons one workload runs against: one replica, or
// replicas plus a router in front of them.
type cluster struct {
	replicas []*daemon
	router   *daemon
	stopOnce sync.Once
}

// front is where workload traffic goes.
func (c *cluster) front() *daemon {
	if c.router != nil {
		return c.router
	}
	return c.replicas[0]
}

func (c *cluster) all() []*daemon {
	out := append([]*daemon(nil), c.replicas...)
	if c.router != nil {
		out = append(out, c.router)
	}
	return out
}

// bootCluster starts the daemons of a workload, with extra added to each
// replica's flags, and waits until every one reports ready. No daemon gets a
// -data-dir, so no state carries over between runs.
func bootCluster(ctx context.Context, bin string, w workload, extra []string) (*cluster, error) {
	c := &cluster{}
	replicaFlags := append(append([]string(nil), w.ReplicaFlags...), extra...)
	for i := 0; i < w.Replicas; i++ {
		d, err := startDaemon(ctx, bin, replicaFlags...)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.replicas = append(c.replicas, d)
	}
	if w.RouterFlags != nil {
		peers := make([]string, len(c.replicas))
		for i, d := range c.replicas {
			peers[i] = d.url
		}
		d, err := startDaemon(ctx, bin, append(append([]string(nil), w.RouterFlags...), "-peers", strings.Join(peers, ","))...)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.router = d
	}
	return c, nil
}

// calibrate measures the machine's speed (see speed.go) while every daemon
// is stopped with SIGSTOP, so that nothing the program does, idle or
// background work included, runs during the calibration. The daemons are
// continued before it returns. Call it only when no request is in flight.
func (c *cluster) calibrate(cal *calibrator) (float64, error) {
	defer c.signalAll(syscall.SIGCONT)
	if err := c.signalAll(syscall.SIGSTOP); err != nil {
		return 0, err
	}
	for _, d := range c.all() {
		if err := d.waitStopped(); err != nil {
			return 0, err
		}
	}
	return cal.speed(), nil
}

func (c *cluster) signalAll(sig syscall.Signal) error {
	for _, d := range c.all() {
		if err := d.cmd.Process.Signal(sig); err != nil {
			return fmt.Errorf("sending %v to spantreed %s: %w", sig, d.url, err)
		}
	}
	return nil
}

// waitStopped waits until every thread of the daemon is in the stopped
// state, as /proc/<pid>/task/<tid>/stat reports it.
func (d *daemon) waitStopped() error {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		tasks, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("listing daemon threads: %w", err)
		}
		stopped := true
		for _, t := range tasks {
			raw, err := os.ReadFile(dir + "/" + t.Name() + "/stat")
			if err != nil {
				continue // the thread exited
			}
			s := string(raw)
			if f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:]); len(f) == 0 || f[0] != "T" {
				stopped = false
				break
			}
		}
		if stopped {
			return nil
		}
	}
	return fmt.Errorf("spantreed %s did not stop within 5s", d.url)
}

// startDaemon execs spantreed on a free loopback port and waits for
// /readyz. A port taken between probing and binding is retried.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		d := &daemon{url: "http://" + addr, cmd: cmd, exited: make(chan struct{}), log: &tailBuffer{max: 4096}}
		cmd.Stdout = d.log
		cmd.Stderr = d.log
		// The daemon dies with the benchmark even if the benchmark is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting spantreed: %w", err)
		}
		go func() {
			_ = cmd.Wait() // the exit status is reported through the log tail
			close(d.exited)
		}()
		if lastErr = d.waitReady(ctx); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("probing for a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("spantreed %s exited before ready: %s", d.url, d.log.String())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("spantreed %s not ready after 30s: %s", d.url, d.log.String())
}

// stop asks the daemon to shut down, kills it if it lingers, and waits
// until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// stop shuts down the router first, then the replicas. Safe to call twice.
func (c *cluster) stop() {
	c.stopOnce.Do(func() {
		if c.router != nil {
			c.router.stop()
		}
		for _, d := range c.replicas {
			d.stop()
		}
	})
}

// register adds the benchmark graph through the front daemon (the router
// replays it onto its replicas).
func (c *cluster) register(ctx context.Context, h *httpClient) error {
	body := fmt.Sprintf(`{"key":%q,"family":%q,"n":%d,"seed":%d}`, cfg.Graph.Key, cfg.Graph.Family, cfg.Graph.N, cfg.Graph.Seed)
	status, raw, err := h.post(ctx, c.front().url+"/v1/graphs", body)
	if err != nil {
		return fmt.Errorf("registering graph: %w", err)
	}
	if status != http.StatusCreated && status != http.StatusOK {
		return fmt.Errorf("registering graph: status %d: %s", status, raw)
	}
	return nil
}

// owner asks the router which replica owns the benchmark graph.
func (c *cluster) owner(ctx context.Context, h *httpClient) (*daemon, error) {
	if c.router == nil {
		return c.replicas[0], nil
	}
	raw, err := h.get(ctx, c.router.url+"/v1/ring?key="+cfg.Graph.Key)
	if err != nil {
		return nil, err
	}
	var ring struct {
		Replicas []string `json:"replicas"`
	}
	if err := json.Unmarshal(raw, &ring); err != nil {
		return nil, fmt.Errorf("decoding /v1/ring: %w", err)
	}
	if len(ring.Replicas) == 0 {
		return nil, errors.New("router reports no replica for the benchmark graph")
	}
	for _, d := range c.replicas {
		if d.url == ring.Replicas[0] {
			return d, nil
		}
	}
	return nil, fmt.Errorf("router owner %q is not a replica", ring.Replicas[0])
}

// cpuSeconds sums user+system CPU of every daemon from /proc/<pid>/stat.
func (c *cluster) cpuSeconds() (float64, error) {
	var ticks int64
	for _, d := range c.all() {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("reading daemon CPU: %w", err)
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line, so 12 and 13 here.
		s := string(raw)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc stat line %q", s)
		}
		for _, field := range f[11:13] {
			v, err := strconv.ParseInt(field, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing /proc stat: %w", err)
			}
			ticks += v
		}
	}
	return float64(ticks) / clockTicks, nil
}

// peakRSSKB sums VmHWM, the peak resident set, of every daemon.
func (c *cluster) peakRSSKB() (int64, error) {
	var total int64
	for _, d := range c.all() {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("reading daemon status: %w", err)
		}
		found := false
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("parsing VmHWM: %w", err)
				}
				total += v
				found = true
			}
		}
		if !found {
			return 0, errors.New("no VmHWM in /proc status")
		}
	}
	return total, nil
}

// tailBuffer keeps the last max bytes a daemon logged, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
