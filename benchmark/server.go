package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// layout names the directories the benchmark works in: the repository root
// (where BENCHMARK.json and cmd/resultdbd live), the benchmark's own
// directory, its output directory and the build directory.
type layout struct {
	root, bench, out, build string
}

// findLayout walks up from the working directory to the directory holding
// BENCHMARK.json, so the benchmark runs from the root or from benchmark/.
func findLayout() (layout, error) {
	dir, err := os.Getwd()
	if err != nil {
		return layout{}, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return layout{
				root:  dir,
				bench: filepath.Join(dir, "benchmark"),
				out:   filepath.Join(dir, "benchmark", "out"),
				build: filepath.Join(dir, ".bench_build"),
			}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return layout{}, errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/resultdbd from the tree and returns the binary's
// path. The Go build cache makes every build after the first a no-op.
func buildServer(l layout) (string, error) {
	bin := filepath.Join(l.build, "resultdbd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/resultdbd")
	cmd.Dir = l.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/resultdbd: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one resultdbd child process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	done   chan struct{} // closed when stdout reached EOF
}

// startServer launches resultdbd on a free loopback port and waits for its
// listening banner.
func startServer(bin string, args []string) (*server, error) {
	s := &server{done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	s.cmd.Stderr = &s.stderr
	// The child must not outlive a benchmark that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			const banner = "resultdbd listening on "
			if line := sc.Text(); strings.HasPrefix(line, banner) {
				addrCh <- strings.Fields(line[len(banner):])[0]
			}
		}
	}()
	select {
	case s.addr = <-addrCh:
		return s, nil
	case <-s.done:
		s.cmd.Wait()
		return nil, fmt.Errorf("resultdbd exited before listening: %s", s.stderr.String())
	case <-time.After(60 * time.Second):
		s.stop(syscall.SIGKILL)
		return nil, errors.New("resultdbd did not listen within 60s")
	}
}

// stop signals the child and waits until it has ended.
func (s *server) stop(sig syscall.Signal) {
	s.cmd.Process.Signal(sig)
	<-s.done
	s.cmd.Wait()
}

// cpu returns the child's user+system CPU time so far. Fields 14 and 15 of
// /proc/<pid>/stat are clock ticks, 100 per second on Linux.
func (s *server) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ")".
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", raw)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat: %q", raw)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// peakRSS returns the child's resident-set high-water mark in bytes.
func (s *server) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) < 2 {
				break
			}
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// hostCPU returns, for all CPUs together, the time the guest's CPUs have run
// anything and the time the host has kept them from running (steal): the
// first line of /proc/stat, in clock ticks. Steal is 0 where the kernel does
// not report it.
func hostCPU() (busy, steal time.Duration) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	var t [8]time.Duration
	for i := range t {
		ticks, err := strconv.ParseInt(f[1+i], 10, 64)
		if err != nil {
			return 0, 0
		}
		t[i] = time.Duration(ticks) * (time.Second / 100)
	}
	return t[0] + t[1] + t[2] + t[5] + t[6], t[7]
}

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
