package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process (root or worker) with its log file.
type proc struct {
	name string
	args []string // the non-default flags passed, recorded in the header
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once Wait has returned
}

// procSet tracks live children so that exit, a signal or a failed run
// never leaves a hillview process behind.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

// start launches bin with args, logging to <dir>/<name>.log. Pdeathsig
// covers the case no deferred call can: the harness itself being killed.
func (ps *procSet) start(dir, name, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, args: args, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (p *proc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}

// stop asks for a graceful shutdown and escalates after a grace period.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.kill()
	}
}

// logTail returns the end of the process log for error reports.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// killAll reaps every child still running. Workloads stop their own
// processes; this is the net under them.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for _, p := range procs {
		if !p.exited() {
			p.kill()
		}
	}
}

// freeAddr reserves a loopback port by binding port 0 and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// pollInterval spaces readiness probes; readiness is always an observed
// event (a 200, an accepted connection), never a fixed sleep.
const pollInterval = 2 * time.Millisecond

// awaitHTTP polls url until it answers 200 or the process dies.
func awaitHTTP(p *proc, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up:\n%s", p.name, p.logTail())
		}
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(pollInterval)
	}
	return fmt.Errorf("%s not ready after %v:\n%s", p.name, timeout, p.logTail())
}

// awaitTCP polls addr until it accepts a connection or the process dies.
func awaitTCP(p *proc, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up:\n%s", p.name, p.logTail())
		}
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return nil
		}
		time.Sleep(pollInterval)
	}
	return fmt.Errorf("%s not listening after %v:\n%s", p.name, timeout, p.logTail())
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux platform Go supports.
const clockTick = 100

// parseProcStat extracts utime+stime in milliseconds from the contents
// of /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(b []byte) (cpuMs float64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", b)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return (ut + st) * 1000 / clockTick, nil
}

// parseProcStatusKB extracts a "Key:   123 kB" value from the contents
// of /proc/<pid>/status, in MB.
func parseProcStatusMB(b []byte, key string) (float64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("proc status %s: %w", key, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

func (p *proc) cpuMs() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0, err
	}
	return parseProcStat(b)
}

// memMB reads VmHWM (peak resident set) or VmRSS.
func (p *proc) memMB(key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	return parseProcStatusMB(b, key)
}

// hostSteal returns the host's cumulative stolen CPU time in ms (field 8
// of the first line of /proc/stat): time this VM wanted a core and a
// neighbour had it. 0 when it cannot be read.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks * 1000 / clockTick
}

// selfCPUMs is the load generator's own CPU time.
func selfCPUMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1000 + float64(t.Usec)/1000 }
	return tv(ru.Utime) + tv(ru.Stime)
}
