package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// Build products (Go cache when run.sh sets one, the benchmark and
// daemon binaries) live under buildDir; results, span files and daemon
// logs under outDir. Both are relative to the module root and ignored
// by git.
const (
	buildDir = ".bench_build"
	outDir   = "bench/out"
)

// moduleRoot walks up from the working directory to the directory
// holding go.mod: the benchmark builds the daemon from the commit under
// test, so it refuses to run anywhere else.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod above the working directory; run from a checkout of the repository")
		}
		dir = parent
	}
}

// ensureDirs creates the two output directories.
func ensureDirs(root string) error {
	for _, dir := range []string{outDir, buildDir} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			return err
		}
	}
	return nil
}

// buildDaemon compiles cmd/toposerve from the tree under test.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "toposerve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/toposerve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/toposerve: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running toposerve subprocess.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	flags  []string
	log    *os.File
	exited chan error
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it, so a collision is possible but
// needs another process to grab the port within milliseconds.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs the daemon and waits for its first 200 on
// /v1/search; the elapsed time is one setup_s sample (database
// generation + prewarm build + listen). extra are daemon flags beyond
// -addr/-scale/-seed; stderr goes to logName under outDir.
func startDaemon(root, bin string, scale int, logName string, extra ...string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(root, outDir, logName))
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	flags := append([]string{"-addr", addr, "-scale", strconv.Itoa(scale), "-seed", strconv.Itoa(dataSeed)}, extra...)
	cmd := exec.Command(bin, flags...)
	cmd.Stderr = logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, flags: flags, log: logf, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()

	client := &http.Client{Timeout: 5 * time.Second}
	probe := []byte(`{"k":1}`)
	deadline := t0.Add(170 * time.Second)
	for {
		resp, err := client.Post(d.base+"/v1/search", "application/json", bytes.NewReader(probe))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // status alone decides readiness
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case werr := <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("bench: daemon exited before serving (%v); see %s", werr, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			_ = d.stop()
			return nil, 0, fmt.Errorf("bench: daemon not ready after %s; see %s", time.Since(t0).Round(time.Second), logf.Name())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the daemon to drain (SIGTERM), waits for it to exit, and
// kills it if the drain overruns. It returns once the process is gone.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited is reported by Wait below
	select {
	case err := <-d.exited:
		return err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("bench: daemon ignored SIGTERM for 20s and was killed")
	}
}
