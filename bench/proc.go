package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 100

// layout locates the repository and the benchmark's output directory.
type layout struct {
	root string // repository root (holds go.mod and BENCHMARK.json)
	out  string // bench/out: binaries, data dirs, traces, results
}

// findLayout walks up from the working directory and from the executable
// to the directory that holds BENCHMARK.json and bench/.
func findLayout() (layout, error) {
	var starts []string
	if wd, err := os.Getwd(); err == nil {
		starts = append(starts, wd)
	}
	if exe, err := os.Executable(); err == nil {
		starts = append(starts, filepath.Dir(exe))
	}
	for _, dir := range starts {
		for {
			if fileExists(filepath.Join(dir, "BENCHMARK.json")) && fileExists(filepath.Join(dir, "bench", "go.mod")) {
				return layout{root: dir, out: filepath.Join(dir, "bench", "out")}, nil
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				break
			}
			dir = parent
		}
	}
	return layout{}, errors.New("bench: cannot find the repository root (BENCHMARK.json beside bench/)")
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// buildServer compiles cmd/aggserve into the output directory. It is not
// timed: set-up starts at spawn.
func (l layout) buildServer(ctx context.Context) (string, error) {
	if !fileExists(filepath.Join(l.root, "go.mod")) {
		return "", fmt.Errorf("bench: %s holds no go.mod: nothing to build the server from", l.root)
	}
	bin := filepath.Join(l.out, "bin", "aggserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/aggserve")
	cmd.Dir = l.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building cmd/aggserve: %w\n%s", err, out)
	}
	return bin, nil
}

// cleanup runs registered functions once, on normal exit and on SIGINT,
// so no child or data directory outlives the benchmark.
type cleanup struct {
	mu  sync.Mutex
	fns []func()
}

func (c *cleanup) add(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

func (c *cleanup) run() {
	c.mu.Lock()
	fns := c.fns
	c.fns = nil
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// child is one running aggserve process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	log    *bytes.Buffer
	waited chan struct{}
	once   sync.Once
}

func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts aggserve on a free loopback port with its default flags
// (plus extra) and waits for /readyz. The caller owns the child and must
// stop or kill it; env.cleanup reaps it if the caller never gets there.
func (e *env) spawn(extra ...string) (*child, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, fmt.Errorf("bench: picking a loopback port: %w", err)
	}
	c := &child{addr: addr, log: new(bytes.Buffer), waited: make(chan struct{})}
	c.cmd = exec.Command(e.serverBin, append([]string{"-addr", addr}, extra...)...)
	c.cmd.Stdout, c.cmd.Stderr = c.log, c.log
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting aggserve: %w", err)
	}
	go func() {
		_ = c.cmd.Wait()
		close(c.waited)
	}()
	e.cleanup.add(c.kill)
	if err := c.waitReady(readyDeadline); err != nil {
		c.kill()
		return nil, fmt.Errorf("%w\n--- aggserve log ---\n%s", err, c.log)
	}
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// waitReady polls GET /readyz until it answers 200.
func (c *child) waitReady(deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	req := getRequest("/readyz")
	for time.Now().Before(stop) {
		select {
		case <-c.waited:
			return errors.New("bench: aggserve exited before it was ready")
		default:
		}
		if cn, err := dial(c.addr); err == nil {
			status, _, err := cn.do(req, false)
			cn.close()
			if err == nil && status == 200 {
				return nil
			}
		}
		// A bare restart takes about 14 ms; a coarser poll would quantise it.
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("bench: aggserve not ready on %s within %v", c.addr, deadline)
}

// kill sends SIGKILL and reaps the child: the crash in recovery rounds and
// the last resort everywhere else. Safe to call more than once.
func (c *child) kill() {
	c.once.Do(func() { _ = c.cmd.Process.Kill() })
	<-c.waited
}

// stop asks for a graceful shutdown and falls back to kill.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.waited:
	case <-time.After(10 * time.Second):
	}
	c.kill()
}

// procCPU returns the user+system CPU time a live process has used.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("bench: CPU accounting needs /proc: %w", err)
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("bench: malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: malformed CPU fields in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * (time.Second / clockTick), nil
}

// procPeakRSSMiB returns VmHWM, the peak resident set of a live process.
func procPeakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("bench: memory accounting needs /proc: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: malformed VmHWM %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/%d/status", pid)
}

// selfCPU is this process's user+system CPU time, in microsecond units.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dataDir makes a fresh durability directory under bench/out (the
// benchmark writes only inside its checkout) and registers its removal.
func (e *env) dataDir(tag string) (string, error) {
	dir, err := os.MkdirTemp(e.lay.out, "data-"+tag+"-")
	if err != nil {
		return "", fmt.Errorf("bench: creating data dir: %w", err)
	}
	e.cleanup.add(func() { _ = os.RemoveAll(dir) })
	return dir, nil
}

// onTmpfs reports whether dir is memory-backed, so a reader of the result
// knows whether the WAL numbers include a device.
func onTmpfs(dir string) bool {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	const tmpfsMagic, ramfsMagic = 0x01021994, 0x858458f6
	return st.Type == tmpfsMagic || uint32(st.Type) == ramfsMagic
}
