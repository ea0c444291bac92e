package main

import (
	"bytes"
	"encoding/json"
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

	"stindex/internal/service"
)

// server is one stserve subprocess under test.
type server struct {
	cmd    *exec.Cmd
	addr   string
	logf   *os.File
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
	hc     *http.Client
}

// freePort reserves a loopback port by binding and releasing it; stserve
// takes a listen address, not a listener.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns stserve with args and returns once /healthz
// answers. The child is killed if it has not come up (or has died) by
// the deadline, so a broken server fails the run instead of hanging it.
func startServer(bin, logPath string, deadline time.Time, args ...string) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, addr: addr, logf: logf, exited: make(chan struct{}), hc: &http.Client{}}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	for {
		resp, err := s.hc.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			logf.Close()
			return nil, fmt.Errorf("stserve exited before /healthz answered: %v\n%s", s.err, tail(logPath))
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("stserve did not answer /healthz by the deadline\n%s", tail(logPath))
		}
		// The listener is not up yet: yield briefly instead of spinning on
		// connect. This is the only wait in the benchmark and it is part
		// of set-up, never of a timed round.
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
	s.logf.Close()
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// farewell line in the log.
func (s *server) stop(deadline time.Time) error {
	defer s.logf.Close()
	s.hc.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling stserve: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(time.Until(deadline)):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("stserve did not drain by the deadline; killed\n%s", tail(s.logf.Name()))
	}
	if s.err != nil {
		return fmt.Errorf("stserve exited uncleanly: %v\n%s", s.err, tail(s.logf.Name()))
	}
	if log := tail(s.logf.Name()); !strings.Contains(log, "bye") {
		return fmt.Errorf("stserve exited 0 without draining:\n%s", log)
	}
	return nil
}

func tail(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(bytes.TrimSpace(data))
}

// metrics fetches and decodes GET /metrics.
func (s *server) metrics() (service.Metrics, error) {
	var m service.Metrics
	resp, err := s.hc.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// cpuSeconds is the time the threads of pid have spent on a CPU, user and
// system, summed from /proc/<pid>/task/*/schedstat: the scheduler's own
// nanosecond count, where /proc/<pid>/stat ticks in hundredths of a
// second — too coarse for one round. A thread that has exited takes its
// share with it; stserve's runtime keeps its threads.
func cpuSeconds(pid int) (float64, error) {
	tasks, err := filepath.Glob("/proc/" + strconv.Itoa(pid) + "/task/*/schedstat")
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no /proc/%d/task/*/schedstat (%v)", pid, err)
	}
	var ns int64
	for _, task := range tasks {
		data, err := os.ReadFile(task)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, fmt.Errorf("unexpected %s: %q", task, data)
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("unexpected %s: %q", task, data)
		}
		ns += n
	}
	return float64(ns) / 1e9, nil
}

// peakRSSMiB reads VmHWM of pid from /proc/<pid>/status.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
