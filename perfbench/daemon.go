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

// daemon is one rightsized process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	logs   lockedBuffer
	exited chan struct{}
}

// lockedBuffer collects the daemon's stderr, written by exec's copier
// goroutine and read by the benchmark.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddr reserves a loopback port for the daemon to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs the daemon with the janitor off and no rate limits
// and waits until /v1/healthz answers.
func startDaemon(bin string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: addr, exited: make(chan struct{})}
	d.cmd = child(exec.Command(bin, append([]string{"-addr", addr, "-idle-evict", "0"}, args...)...))
	d.cmd.Stdout = &d.logs
	d.cmd.Stderr = &d.logs
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(20 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// child makes cmd's process die with this one: whichever way the
// benchmark exits, no process it started outlives it.
func child(cmd *exec.Cmd) *exec.Cmd {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// waitReady polls healthz until the daemon answers 200.
func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := control.Get("http://" + d.addr + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("daemon exited before ready:\n%s", d.logs.String())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after %v:\n%s", timeout, d.logs.String())
		}
	}
}

// checkFresh is the per-run self-check that the daemon is a fresh
// process with the janitor off: nothing opened, an untouched layer memo,
// and the startup log line reporting idle-evict 0s.
func (d *daemon) checkFresh() error {
	sc, err := d.scrape()
	if err != nil {
		return err
	}
	if n := sc["rightsized_sessions_opened_total"] + sc["rightsized_solver_memo_hits_total"] + sc["rightsized_solver_memo_misses_total"]; n != 0 {
		return fmt.Errorf("self-check: daemon is not fresh (opened+memo lookups = %v)", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(d.logs.String(), "idle-evict 0s") {
		if time.Now().After(deadline) {
			return fmt.Errorf("self-check: daemon did not report the janitor off:\n%s", d.logs.String())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// kill SIGKILLs the daemon and waits until it has exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// scrape reads /metrics into series → value (labels kept in the key).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := control.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux ABI Go supports).
const clockTick = 100

// cpuSeconds is the user+system CPU time of process pid.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+2:]))
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMiB is process pid's VmHWM.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostSteal is the CPU time, in seconds summed over CPUs, that the
// hypervisor has run something else while this machine's CPUs were
// runnable (the steal column of /proc/stat); 0 where it is not reported.
func hostSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / clockTick
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// control is the client for everything outside the push loop: opens,
// session reads, healthz and scrapes.
var control = &http.Client{Timeout: 30 * time.Second}

// conn is one keep-alive HTTP/1.1 connection of the push loop. Requests
// are written from a reused buffer; responses are parsed by net/http.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

// post sends one POST and returns the status and the response body,
// which stays valid until the next call.
func (c *conn) post(path string, body []byte) (int, []byte, error) {
	r := append(c.req[:0], "POST "...)
	r = append(r, path...)
	r = append(r, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	r = strconv.AppendInt(r, int64(len(body)), 10)
	r = append(r, "\r\n\r\n"...)
	r = append(r, body...)
	c.req = r
	if _, err := c.c.Write(r); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

func (c *conn) close() { c.c.Close() }
