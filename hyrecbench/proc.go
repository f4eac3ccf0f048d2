package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
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

// usage is one reading of a server process's resource counters.
type usage struct {
	cpu     time.Duration // user+sys
	hwmKB   int64         // peak resident set (VmHWM)
	ioBytes int64         // rchar+wchar: every byte its sockets moved
}

// target is a running server the generator drives: the shipped binary
// or the traced host as a child process, or an in-process server in the
// benchmark's own tests.
type target interface {
	URL() string
	Usage() (usage, error)
	Stop() error
}

// readUsage reads pid's counters from /proc. Any read or parse failure
// is an error: a benchmark that cannot see the server reports nothing
// rather than zeros.
func readUsage(pid string) (usage, error) {
	var u usage
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return u, fmt.Errorf("read server cpu: %w", err)
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return u, fmt.Errorf("parse /proc/%s/stat: no command field", pid)
	}
	f := strings.Fields(string(stat[end+1:]))
	if len(f) < 13 {
		return u, fmt.Errorf("parse /proc/%s/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return u, fmt.Errorf("parse /proc/%s/stat: %w", pid, err)
	}
	// The kernel reports these in USER_HZ ticks, 100 per second on Linux.
	u.cpu = time.Duration(utime+stime) * 10 * time.Millisecond

	if u.hwmKB, err = procField("/proc/"+pid+"/status", "VmHWM:"); err != nil {
		return u, err
	}
	rchar, err := procField("/proc/"+pid+"/io", "rchar:")
	if err != nil {
		return u, err
	}
	wchar, err := procField("/proc/"+pid+"/io", "wchar:")
	if err != nil {
		return u, err
	}
	u.ioBytes = rchar + wchar
	return u, nil
}

func procField(path, key string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", path, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key); ok {
			fs := strings.Fields(rest)
			if len(fs) == 0 {
				break
			}
			v, err := strconv.ParseInt(fs[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %s: %w", path, key, err)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("%s has no %s line", path, key)
}

// children tracks every server process the generator started, so a
// signal or a failed check still kills and reaps them.
var children struct {
	sync.Mutex
	set map[*child]struct{}
}

func killAllChildren() {
	children.Lock()
	list := make([]*child, 0, len(children.set))
	for c := range children.set {
		list = append(list, c)
	}
	children.Unlock()
	for _, c := range list {
		c.Stop()
	}
}

// child is a server process on a loopback port.
type child struct {
	cmd     *exec.Cmd
	url     string
	pid     string
	done    chan struct{} // closed once the process is reaped
	waitErr error
	stdout  bytes.Buffer // guarded by outMu until done
	outMu   sync.Mutex
	gc      *gcTrace // non-nil when GODEBUG=gctrace=1 is parsed
	stopMu  sync.Mutex
	stopped bool
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick free port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", fmt.Errorf("release probe port: %w", err)
	}
	return addr, nil
}

// startChild launches bin on a free port with args and waits until
// /healthz answers. With gcTrace set, the child runs with
// GODEBUG=gctrace=1 and its collections are counted from stderr.
func startChild(bin string, args []string, traceGC bool) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, err := startChildOnce(bin, args, traceGC)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func startChildOnce(bin string, args []string, traceGC bool) (*child, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	c := &child{url: "http://" + addr, done: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.Stdout = lockedWriter{&c.outMu, &c.stdout}
	var stderr bytes.Buffer
	if traceGC {
		c.gc = &gcTrace{}
		c.cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
		c.cmd.Stderr = lockedWriter{&c.outMu, io.MultiWriter(&stderr, c.gc)}
	} else {
		c.cmd.Stderr = lockedWriter{&c.outMu, &stderr}
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c.pid = strconv.Itoa(c.cmd.Process.Pid)
	children.Lock()
	if children.set == nil {
		children.set = make(map[*child]struct{})
	}
	children.set[c] = struct{}{}
	children.Unlock()
	go func() {
		c.waitErr = c.cmd.Wait()
		close(c.done)
	}()

	deadline := time.Now().Add(15 * time.Second)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			c.outMu.Lock()
			msg := stderr.String()
			c.outMu.Unlock()
			c.Stop()
			return nil, fmt.Errorf("%s exited during start: %v: %s", bin, c.waitErr, strings.TrimSpace(msg))
		default:
		}
		resp, err := hc.Get(c.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return c, nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.Stop()
	return nil, fmt.Errorf("%s did not answer /healthz within 15s", bin)
}

func (c *child) URL() string { return c.url }

func (c *child) Usage() (usage, error) {
	select {
	case <-c.done:
		return usage{}, fmt.Errorf("server process %s exited: %v", c.pid, c.waitErr)
	default:
	}
	return readUsage(c.pid)
}

// Stop kills the process and reaps it.
func (c *child) Stop() error {
	c.stopMu.Lock()
	defer c.stopMu.Unlock()
	if !c.stopped {
		c.stopped = true
		_ = c.cmd.Process.Kill() // an already-exited process is fine
		<-c.done
		children.Lock()
		delete(children.set, c)
		children.Unlock()
	}
	return nil
}

// Terminate asks the process to exit with SIGTERM (the traced host then
// writes its spans to stdout), waits up to grace, and returns what it
// printed. It kills the process if it does not exit in time.
func (c *child) Terminate(grace time.Duration) (string, error) {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.Stop()
		return "", fmt.Errorf("signal server: %w", err)
	}
	select {
	case <-c.done:
	case <-time.After(grace):
		c.Stop()
		return "", fmt.Errorf("server did not exit within %s of SIGTERM", grace)
	}
	c.Stop()
	c.outMu.Lock()
	defer c.outMu.Unlock()
	return c.stdout.String(), nil
}

// gcTrace counts garbage collections and their stop-the-world pauses
// from the runtime's gctrace lines:
//
//	gc 7 @0.512s 2%: 0.021+1.2+0.015 ms clock, ...
//
// The two pauses are the first and last of the three clock terms.
type gcTrace struct {
	mu      sync.Mutex
	partial []byte
	cycles  int64
	pause   time.Duration
}

func (g *gcTrace) Write(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.partial = append(g.partial, p...)
	for {
		i := bytes.IndexByte(g.partial, '\n')
		if i < 0 {
			break
		}
		g.parse(string(g.partial[:i]))
		g.partial = g.partial[i+1:]
	}
	return len(p), nil
}

func (g *gcTrace) parse(line string) {
	if !strings.HasPrefix(line, "gc ") {
		return
	}
	_, rest, ok := strings.Cut(line, ": ")
	if !ok {
		return
	}
	clock, _, ok := strings.Cut(rest, " ms clock")
	if !ok {
		return
	}
	terms := strings.Split(clock, "+")
	if len(terms) != 3 {
		return
	}
	stw1, err1 := strconv.ParseFloat(terms[0], 64)
	stw2, err2 := strconv.ParseFloat(terms[2], 64)
	if err1 != nil || err2 != nil {
		return
	}
	g.cycles++
	g.pause += time.Duration((stw1 + stw2) * float64(time.Millisecond))
}

func (g *gcTrace) snapshot() (int64, time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cycles, g.pause
}
