package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"reviewsolver/internal/apk"
)

// binaries are the two programs under test, built from the source tree.
type binaries struct {
	reviewd, snapshotc string
}

func buildBinaries(root, dir string) (binaries, error) {
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/reviewd", "./cmd/snapshotc")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("build reviewd and snapshotc: %w\n%s", err, out)
	}
	return binaries{reviewd: filepath.Join(dir, "reviewd"), snapshotc: filepath.Join(dir, "snapshotc")}, nil
}

// layout names a workload's files: app IR JSON inputs and compiled images.
type layout struct{ dir string }

func (l layout) file(i int, ext string) string {
	return filepath.Join(l.dir, fmt.Sprintf("app%02d%s", i, ext))
}

func (l layout) appJSON(i int) string    { return l.file(i, ".json") }
func (l layout) image(i int) string      { return l.file(i, ".snap") }
func (l layout) baseJSON(i int) string   { return l.file(i, ".base.json") }
func (l layout) baseImage(i int) string  { return l.file(i, ".base.snap") }
func (l layout) deltaImage(i int) string { return l.file(i, ".delta.snap") }

// writeInputs writes every app IR (and, for the release writer, each churn
// app's history without its latest release) as snapshotc input.
func writeInputs(c *corpus, l layout) error {
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return err
	}
	for i, a := range c.apps {
		if err := a.app.SaveJSON(l.appJSON(i)); err != nil {
			return err
		}
	}
	for _, i := range c.churn {
		a := c.apps[i].app
		prev := &apk.App{Package: a.Package, Name: a.Name, Releases: a.Releases[:len(a.Releases)-1]}
		if err := prev.SaveJSON(l.baseJSON(i)); err != nil {
			return err
		}
	}
	return nil
}

// compileStats are the snapshotc wall times of one set-up.
type compileStats struct {
	fullMs, deltaMs []float64
	// deltaOK is false when snapshotc rejected -base; the release writer
	// then registers full images only.
	deltaOK bool
}

// compileImages compiles every image a workload serves, running one
// snapshotc process per CPU: full images first, then the deltas against
// them.
func compileImages(bins binaries, c *corpus, l layout, nproc int) (compileStats, error) {
	st := compileStats{deltaOK: true}
	var full, delta [][]string
	for i := range c.apps {
		full = append(full, []string{"-appfile", l.appJSON(i), "-o", l.image(i)})
	}
	for _, i := range c.churn {
		full = append(full, []string{"-appfile", l.baseJSON(i), "-o", l.baseImage(i)})
		delta = append(delta, []string{"-appfile", l.appJSON(i), "-base", l.baseImage(i), "-o", l.deltaImage(i)})
	}
	ms, err := runSnapshotc(bins, full, nproc)
	if err != nil {
		return st, err
	}
	st.fullMs = ms
	if ms, err = runSnapshotc(bins, delta, nproc); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: delta images unavailable, registering full images:", err)
		st.deltaOK = false
		return st, nil
	}
	st.deltaMs = ms
	return st, nil
}

// runSnapshotc runs one snapshotc per argument list on nproc workers and
// returns each run's wall time in ms.
func runSnapshotc(bins binaries, jobs [][]string, nproc int) ([]float64, error) {
	ms := make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				start := time.Now()
				out, err := exec.Command(bins.snapshotc, append(jobs[j], "-q")...).CombinedOutput()
				if err != nil {
					errs[j] = fmt.Errorf("snapshotc %s: %w\n%s", strings.Join(jobs[j], " "), err, out)
				}
				ms[j] = float64(time.Since(start).Nanoseconds()) / 1e6
			}
		}()
	}
	for j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return ms, errors.Join(errs...)
}

// server is a running reviewd process.
type server struct {
	cmd     *exec.Cmd
	base    string // host:port reviewd bound
	drained chan struct{}
}

// bootTimeout bounds reviewd's start (classifier training included).
const bootTimeout = 120 * time.Second

// startServer execs reviewd with only deployment flags and waits until it
// prints its bound address.
func startServer(bins binaries, c *corpus, l layout) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	for i, a := range c.apps {
		args = append(args, "-snapshot", a.pkg+"="+l.image(i))
	}
	if c.w.maxBytes > 0 {
		args = append(args, "-max-bytes", fmt.Sprint(c.w.maxBytes))
	}
	cmd := exec.Command(bins.reviewd, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reviewd: %w", err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "reviewd listening on http://"); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		s.base = a
		return s, nil
	case <-s.drained:
		err = errors.New("reviewd exited before listening")
	case <-time.After(bootTimeout):
		err = fmt.Errorf("reviewd not listening after %s", bootTimeout)
	}
	s.stop()
	return nil, err
}

// stop terminates reviewd and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.drained
	}
	_ = s.cmd.Wait()
}

// pause stops reviewd until resume, so a calibration burst does not share
// the CPUs with work reviewd left running after the traffic, such as
// garbage collection of evicted images.
func (s *server) pause()  { _ = s.cmd.Process.Signal(syscall.SIGSTOP) }
func (s *server) resume() { _ = s.cmd.Process.Signal(syscall.SIGCONT) }

// setupResult is one measured set-up: compile every image, boot reviewd,
// and answer a first request per app.
type setupResult struct {
	total, boot time.Duration
	compile     compileStats
}

func setUp(ctx context.Context, bins binaries, c *corpus, l layout, client *http.Client, nproc int) (*server, setupResult, error) {
	var res setupResult
	start := time.Now()
	st, err := compileImages(bins, c, l, nproc)
	if err != nil {
		return nil, res, err
	}
	res.compile = st
	bootStart := time.Now()
	srv, err := startServer(bins, c, l)
	if err != nil {
		return nil, res, err
	}
	res.boot = time.Since(bootStart)
	for i := range c.apps {
		status, body, err := post(ctx, client, srv.url("/v1/localize"), c.bodies[i][0], nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			srv.stop()
			return nil, res, fmt.Errorf("first request for %s: %w", c.apps[i].pkg, err)
		}
	}
	res.total = time.Since(start)
	return srv, res, nil
}

func (s *server) url(path string) string { return "http://" + s.base + path }
