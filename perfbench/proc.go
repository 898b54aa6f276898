package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 100

// procCPU parses user+sys CPU time out of the contents of /proc/<pid>/stat.
// The command name (field 2) may hold spaces and parentheses, so fields
// are counted from the last ')'.
func procCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command name")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// procHWM parses the peak resident set (VmHWM) out of the contents of
// /proc/<pid>/status, in bytes.
func procHWM(status []byte) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: bad VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// hostTicks parses the aggregate "cpu" line of /proc/stat: the ticks the
// hypervisor stole from this machine's CPUs, and all ticks. A phase's
// share of stolen ticks tells a slow run on a busy host from a slow
// program.
func hostTicks(stat []byte) (steal, total int64, err error) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	f := strings.Fields(string(line))
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: bad cpu line %q", line)
	}
	for i, s := range f[1:9] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// stealMeter measures the share of CPU time the host stole over a span.
type stealMeter struct{ steal, total int64 }

func startSteal() (stealMeter, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMeter{}, err
	}
	s, t, err := hostTicks(raw)
	return stealMeter{s, t}, err
}

// share returns the stolen share of all ticks since the meter started.
func (m stealMeter) share() (float64, error) {
	now, err := startSteal()
	if err != nil || now.total == m.total {
		return 0, err
	}
	return float64(now.steal-m.steal) / float64(now.total-m.total), nil
}

// procUsage is one process's cumulative cost as /proc reports it.
type procUsage struct {
	CPU time.Duration
	HWM int64 // bytes
}

// readUsage reads pid's CPU and peak RSS ("self" for this process).
func readUsage(pid string) (procUsage, error) {
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procUsage{}, err
	}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return procUsage{}, err
	}
	cpu, err := procCPU(stat)
	if err != nil {
		return procUsage{}, err
	}
	hwm, err := procHWM(status)
	if err != nil {
		return procUsage{}, err
	}
	return procUsage{CPU: cpu, HWM: hwm}, nil
}

// proc is one launched server process.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
}

// freeAddr returns a loopback address with a port that was free a moment
// ago. Another process could bind it before the server does; then the
// server fails to listen and the run fails loudly rather than measuring
// the wrong thing.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// launch starts bin with args; its output goes to logPath.
func launch(name, url, logPath, bin string, args ...string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return &proc{name: name, url: url, cmd: cmd, log: lf}, nil
}

func (p *proc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// usage reads the live process's CPU and peak RSS.
func (p *proc) usage() (procUsage, error) {
	u, err := readUsage(p.pid())
	if err != nil {
		return u, fmt.Errorf("%s: %w", p.name, err)
	}
	return u, nil
}

// stop ends the process: SIGTERM and a graceful drain when graceful is
// set, SIGKILL otherwise (or when the drain overruns its grace period).
// It returns once the process has been reaped.
func (p *proc) stop(graceful bool) error {
	defer p.log.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	if graceful {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err == nil {
			select {
			case err := <-done:
				return exitErr(p.name, err)
			case <-time.After(15 * time.Second):
			}
		}
	}
	_ = p.cmd.Process.Kill() // fails only if the process already exited
	err := <-done
	if graceful {
		return exitErr(p.name, err)
	}
	return nil
}

func exitErr(name string, err error) error {
	if err != nil {
		return fmt.Errorf("%s exited badly: %w", name, err)
	}
	return nil
}

// waitHealthy polls base's /v1/healthz until it answers 200.
func waitHealthy(ctx context.Context, hc *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy", base)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		sleepUntil(time.Now().Add(250 * time.Microsecond))
	}
}
