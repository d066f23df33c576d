package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dpmg/internal/scenario"
)

// freePort reserves an ephemeral loopback port. The listener closes before
// the server binds it, a small race that loopback ephemeral ports make
// negligible.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// server is one launched dpmg-server process.
type server struct {
	cmd      *exec.Cmd
	logPath  string
	httpAddr string
	client   *scenario.Client
	exited   chan struct{}
}

// launchServer starts dpmg-server with args plus -addr, and returns once
// its HTTP surface answers. Readiness is polled with a 1 ms TCP dial
// (well below the set-up bound) and then confirmed by scenario's
// WaitReady, whose first /metrics probe succeeds at once.
func launchServer(ctx context.Context, bin, logPath string, args []string) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without stopping the server, the kernel
	// kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dpmg-server: %w", err)
	}
	s := &server{cmd: cmd, logPath: logPath, httpAddr: addr,
		client: scenario.NewClient("http://" + addr), exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is read through stop
		close(s.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			break
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("dpmg-server exited during start-up: %s", s.logTail())
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("dpmg-server did not listen on %s: %s", addr, s.logTail())
		}
		time.Sleep(time.Millisecond)
	}
	rctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := s.client.WaitReady(rctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// logTail returns the end of the server's log for error messages.
func (s *server) logTail() string {
	b, _ := os.ReadFile(s.logPath) // best-effort diagnostics
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// stop sends SIGTERM, waits up to ten seconds, then kills, and always
// waits until the process has exited.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // last resort
		<-s.exited
	}
}

// pid returns the server's process id.
func (s *server) pid() int { return s.cmd.Process.Pid }

// peakRSSMB reads the process's VmHWM in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTime reads the CPU time a process has run, summed over its threads
// from /proc/<pid>/task/*/schedstat (nanoseconds on a CPU; time the
// hypervisor stole is not counted). Go processes keep their threads, so
// the sum is the process's CPU time at nanosecond resolution, where
// /proc/<pid>/stat counts 10 ms ticks.
func cpuTime(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no threads under /proc/%d/task", pid)
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", t, err)
		}
		ns += v
	}
	return time.Duration(ns), nil
}

// cpuMeter measures one process's CPU time from a starting point.
type cpuMeter struct {
	pid   int
	cpu0  time.Duration
	wall0 time.Time
}

func startCPU(pid int) (*cpuMeter, error) {
	c, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	return &cpuMeter{pid: pid, cpu0: c, wall0: time.Now()}, nil
}

// util returns CPU-seconds per wall second since the meter started.
func (m *cpuMeter) util() (float64, error) {
	c, err := cpuTime(m.pid)
	if err != nil {
		return 0, err
	}
	return (c - m.cpu0).Seconds() / time.Since(m.wall0).Seconds(), nil
}

// scrape fetches the server's /metrics exposition as sample → value.
// Labeled samples keep their label set in the key, e.g.
// `dpmg_stream_items_ingested_total{stream="z0"}`.
func scrape(ctx context.Context, httpAddr string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+httpAddr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// runDir makes a fresh per-run directory under workdir.
func runDir(workdir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workdir, fmt.Sprintf("%s-%d-", workload, seed))
}

// subdir makes dir/name.
func subdir(dir, name string) (string, error) {
	p := filepath.Join(dir, name)
	return p, os.MkdirAll(p, 0o755)
}
