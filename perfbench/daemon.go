package main

// Daemon processes under test: launch, readiness, resource readings
// from /proc, counter scrapes from /metrics and /debug/vars, and stop.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one running heteromixd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin on a fresh loopback port with extra flags.
// The daemon's log goes to logw.
func startDaemon(bin string, port int, logw io.Writer, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logw
	cmd.Stderr = logw
	// A daemon must not outlive a benchmark that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop() sends SIGTERM
		close(d.done)
	}()
	return d, nil
}

// stop sends SIGTERM, waits for the exit, and kills after a grace
// period.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// exited reports whether the process has ended.
func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// procStat is the CPU time and peak resident set of one process.
type procStat struct {
	cpu     time.Duration
	peakRSS int64 // bytes (VmHWM)
}

func readProcStat(pid int) (procStat, error) {
	var ps procStat
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// The command name is parenthesized and may hold spaces: fields
	// count from the last ')'.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	ps.cpu = time.Duration(utime+stime) * time.Second / clockTicks
	st, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	sc := bufio.NewScanner(bytes.NewReader(st))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return ps, fmt.Errorf("parsing VmHWM: %w", err)
			}
			ps.peakRSS = kb * 1024
		}
	}
	return ps, nil
}

// counters is one scrape of a daemon: every /metrics series by its full
// name (labels included) plus the memstats allocation totals and the
// process readings.
type counters struct {
	series     map[string]float64
	totalAlloc float64
	mallocs    float64
	proc       procStat
}

func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

// scrape reads /metrics, /debug/vars and /proc for one daemon.
func (d *daemon) scrape(ctx context.Context, c *http.Client) (counters, error) {
	var out counters
	b, err := get(ctx, c, d.base+"/metrics")
	if err != nil {
		return out, err
	}
	out.series = parseProm(b)
	vb, err := get(ctx, c, d.base+"/debug/vars")
	if err != nil {
		return out, err
	}
	var vars struct {
		Memstats struct {
			TotalAlloc float64
			Mallocs    float64
		} `json:"memstats"`
	}
	if err := json.Unmarshal(vb, &vars); err != nil {
		return out, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	out.totalAlloc = vars.Memstats.TotalAlloc
	out.mallocs = vars.Memstats.Mallocs
	out.proc, err = readProcStat(d.cmd.Process.Pid)
	return out, err
}

// parseProm reads Prometheus text exposition into series -> value.
func parseProm(b []byte) map[string]float64 {
	m := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
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
		m[line[:i]] = v
	}
	return m
}

// delta is after minus before for every series, summed over daemons
// pairwise (before[i], after[i]).
type delta struct {
	series     map[string]float64
	totalAlloc float64
	mallocs    float64
	cpu        time.Duration
	peakRSS    int64
}

func diff(before, after []counters) delta {
	d := delta{series: make(map[string]float64)}
	for i := range after {
		for k, v := range after[i].series {
			d.series[k] += v - before[i].series[k]
		}
		d.totalAlloc += after[i].totalAlloc - before[i].totalAlloc
		d.mallocs += after[i].mallocs - before[i].mallocs
		d.cpu += after[i].proc.cpu - before[i].proc.cpu
		d.peakRSS += after[i].proc.peakRSS
	}
	return d
}

// counter returns the delta of a series name (exact, labels included).
func (d delta) counter(name string) float64 { return d.series[name] }

// histP50 estimates the median of the request-latency histogram summed
// over the given endpoints, interpolating linearly inside the bucket,
// in seconds.
func (d delta) histP50(endpoints ...string) float64 {
	buckets := map[float64]float64{}
	total := 0.0
	for _, ep := range endpoints {
		prefix := `heteromixd_request_latency_seconds_bucket{endpoint="` + ep + `",le="`
		for k, v := range d.series {
			rest, ok := strings.CutPrefix(k, prefix)
			if !ok {
				continue
			}
			le := strings.TrimSuffix(rest, `"}`)
			bound := math.Inf(1)
			if le != "+Inf" {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					continue
				}
				bound = f
			}
			buckets[bound] += v
		}
		total += d.series[`heteromixd_request_latency_seconds_count{endpoint="`+ep+`"}`]
	}
	if total == 0 {
		return 0
	}
	bounds := make([]float64, 0, len(buckets))
	for b := range buckets {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	target := total / 2
	lo, cumLo := 0.0, 0.0
	for _, b := range bounds {
		cum := buckets[b]
		if cum >= target {
			if math.IsInf(b, 1) || cum == cumLo {
				return lo
			}
			return lo + (b-lo)*(target-cumLo)/(cum-cumLo)
		}
		lo, cumLo = b, cum
	}
	return lo
}

// histMean is the mean of the request-latency histogram summed over
// the given endpoints (sum over count), in seconds.
func (d delta) histMean(endpoints ...string) float64 {
	var sum, count float64
	for _, ep := range endpoints {
		sum += d.series[`heteromixd_request_latency_seconds_sum{endpoint="`+ep+`"}`]
		count += d.series[`heteromixd_request_latency_seconds_count{endpoint="`+ep+`"}`]
	}
	return ratio(sum, count)
}

// failures sums the daemon counters the benchmark treats as failed
// operations: shed, timed out, degraded, panicked or errored requests.
func (d delta) failures() float64 {
	n := d.counter("heteromixd_rejected_total") + d.counter("heteromixd_timeouts_total") +
		d.counter("heteromixd_degraded_responses_total") + d.counter("heteromixd_panics_recovered_total")
	for k, v := range d.series {
		if strings.HasPrefix(k, "heteromixd_request_errors_total{") {
			n += v
		}
	}
	return n
}
