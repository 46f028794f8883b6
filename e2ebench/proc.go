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
)

// proc is one shapleyd process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited and been reaped
}

// startProc launches shapleyd with args plus a free loopback -addr, and
// returns once it answers /readyz. Its output goes to <logDir>/<name>.log.
// Another process may take the port between the probe and the bind, so a
// start that fails is tried again on a fresh port.
func startProc(ctx context.Context, bin, logDir, name string, args ...string) (*proc, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var p *proc
		if p, err = startOnce(ctx, bin, logDir, name, args...); err == nil {
			return p, nil
		}
	}
	return nil, err
}

func startOnce(ctx context.Context, bin, logDir, name string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant: stop decides when a server ends
		logf.Close()
		close(p.done)
	}()
	if err := p.waitReady(ctx, 20*time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// waitReady polls /readyz until it answers 200.
func (p *proc) waitReady(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready (see its log)", p.name)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s", p.name, limit)
		}
	}
}

// stop ends the process, gracefully first, and waits until it has exited.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
		return
	case <-time.After(15 * time.Second):
	}
	_ = p.cmd.Process.Kill()
	<-p.done
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("peak rss of %s: %w", p.name, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss of %s: %w", p.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss of " + p.name + ": no VmHWM line")
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("find a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// fleet is the set of server processes one workload runs against.
type fleet struct {
	procs []*proc
	front *proc // the process clients talk to
}

// stop ends every process of the fleet.
func (f *fleet) stop() {
	for _, p := range f.procs {
		p.stop()
	}
}

// peakRSSMB sums the peak resident memory of every process of the fleet.
func (f *fleet) peakRSSMB() (float64, error) {
	var sum float64
	for _, p := range f.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}
