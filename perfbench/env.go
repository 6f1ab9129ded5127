package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/spt/client"
)

// runEnv owns one benchmark run's scratch space under .bench_build/runs.
// Every daemon the run starts gets fresh directories below it (native
// module cache, store, journal, temp files) and a fresh hardlinked copy of
// the checkout's Go build cache, so run 1 and run N start in the same state:
// the standard library is compiled, no native-capture module is.
type runEnv struct {
	sptd    string // daemon binary
	dir     string // this run's scratch root
	gocache string // checkout-level build cache the copies are made from
	seq     int    // directory counter
}

func newRunEnv(out, sptd, workload string) (*runEnv, error) {
	dir := filepath.Join(out, "runs", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &runEnv{sptd: sptd, dir: dir, gocache: filepath.Join(out, "gocache")}, nil
}

func (e *runEnv) close() { _ = os.RemoveAll(e.dir) }

// fresh returns a new, empty directory under the run root.
func (e *runEnv) fresh(name string) (string, error) {
	e.seq++
	d := filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, e.seq))
	return d, os.MkdirAll(d, 0o755)
}

// freshGoCache hardlinks the checkout's build cache into a new directory.
// The go command only ever adds cache files (write to temp, rename), so the
// copy shares the compiled standard library while every module build it
// performs stays private to the copy.
func (e *runEnv) freshGoCache() (string, error) {
	dst, err := e.fresh("gocache")
	if err != nil {
		return "", err
	}
	err = linkTree(e.gocache, dst, "")
	if err != nil {
		return "", fmt.Errorf("copy build cache: %w", err)
	}
	return dst, nil
}

// daemon is one sptd process.
type daemon struct {
	name    string
	url     string
	cmd     *exec.Cmd
	cl      *client.Client
	log     *os.File
	ncDir   string    // native-capture module cache
	started time.Time // when start launched the process
	hwm     float64   // VmHWM in MB, read just before the process is stopped
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

var httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

// newDaemon prepares sptd with its shipped defaults plus the given flags, a
// fresh native-capture directory and a fresh build cache copy; start
// launches it.
func (e *runEnv) newDaemon(name string, port int, extra ...string) (*daemon, error) {
	nc, err := e.fresh("nativecap-" + name)
	if err != nil {
		return nil, err
	}
	tmp, err := e.fresh("tmp-" + name)
	if err != nil {
		return nil, err
	}
	gc, err := e.freshGoCache()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-native-cache-dir", nc}, extra...)
	logf, err := os.Create(filepath.Join(e.dir, fmt.Sprintf("sptd-%s-%d.log", name, e.seq)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.sptd, args...)
	cmd.Env = append(os.Environ(), "GOCACHE="+gc, "TMPDIR="+tmp, "GOTMPDIR="+tmp)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A process group of its own, so stop can also reap the native-capture
	// worker processes the daemon forks; killed with this process if it
	// dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	url := "http://" + addr
	return &daemon{name: name, url: url, cmd: cmd, cl: client.New(url, httpc), log: logf, ncDir: nc}, nil
}

// start launches the daemon without waiting for readiness.
func (d *daemon) start() error {
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		d.log.Close()
		d.cmd = nil
		return fmt.Errorf("start sptd %s: %w", d.name, err)
	}
	return nil
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context) error {
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		resp, err := httpc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("sptd %s not ready: %w", d.name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop records the peak RSS, then SIGTERMs the daemon (a graceful drain),
// escalating to SIGKILL of its whole process group, and waits for it.
func (d *daemon) stop() {
	if d.cmd == nil || d.cmd.Process == nil {
		if d.cmd != nil {
			d.log.Close() // prepared, never started
			d.cmd = nil
		}
		return
	}
	d.hwm = vmHWM(d.cmd.Process.Pid)
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
		<-done
	}
	// Reap anything left in the group (resident capture workers).
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	d.cmd = nil
	d.log.Close()
}

// vmHWM reads a process's peak resident set (MB) from /proc.
func vmHWM(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// sample is one /metrics scrape: series (name plus labels) to value.
type sample map[string]float64

func scrape(ctx context.Context, d *daemon) (sample, error) {
	text, err := d.cl.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", d.name, err)
	}
	s := sample{}
	for _, line := range strings.Split(text, "\n") {
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
		s[line[:i]] = v
	}
	return s, nil
}

// scrapeAll sums one scrape of every daemon.
func scrapeAll(ctx context.Context, ds []*daemon) (sample, error) {
	sum := sample{}
	for _, d := range ds {
		s, err := scrape(ctx, d)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			sum[k] += v
		}
	}
	return sum, nil
}

// delta is after − before for one series.
func delta(before, after sample, series string) float64 { return after[series] - before[series] }

var errInvalid = errors.New("workload guard broken")
