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
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running rlensd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// servingLine is rlensd's startup banner, printed once every network's
// initial load has finished and the listener is bound.
var servingLine = regexp.MustCompile(`on http://(\S+) `)

// startDaemon execs rlensd with args, listening on an ephemeral loopback
// port, and returns once its banner names the bound address. stderr (the
// daemon's logs) goes to logPath.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		// Drained to EOF, so Wait may now close the pipe.
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("rlensd exited before serving (%v); see %s", d.err, logPath)
	case <-time.After(150 * time.Second):
		d.stop()
		return nil, fmt.Errorf("rlensd did not start serving within 150s; see %s", logPath)
	}
}

// stop asks the daemon to drain (SIGTERM) and waits for it to exit,
// killing it if it has not within 15 seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// procStat is a process's cumulative CPU time and peak resident set.
type procStat struct {
	cpu    time.Duration // user + system
	hwmMiB float64
}

// clockTick is the kernel's USER_HZ, the unit of /proc/PID/stat times;
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procStat, error) {
	var ps procStat
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return ps, err
	}
	ps.cpu = time.Duration(utime+stime) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return ps, err
			}
			ps.hwmMiB = kb / 1024
		}
	}
	return ps, nil
}

// scrapeCounters sums every sample of the named Prometheus counters on
// the daemon's /metrics page, across label sets.
func scrapeCounters(ctx context.Context, client *http.Client, base string, names ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
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
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, want := range names {
			if name == want {
				v, err := strconv.ParseFloat(f[len(f)-1], 64)
				if err != nil {
					return nil, fmt.Errorf("/metrics: %s: %w", line, err)
				}
				out[want] += v
			}
		}
	}
	return out, nil
}
