// Command perfbench is heteromixd's end-to-end benchmark. It launches
// daemons built from the tree, drives them over loopback HTTP with one
// closed-loop connection, checks a seeded sample of the answers against
// in-process reference computations, and prints the end-to-end metrics
// (--trace 0) or the per-layer ledger (--trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload predict_refit --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, metrics and noise notes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"heteromix/internal/experiments"
	"heteromix/internal/shard"
)

// setupStarts is how many fresh starts setup_s takes the median of: a
// single exec-to-ready start on this class of host ranges by ±30%.
const setupStarts = 7

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and their sample counts for the human-readable
// lines printed before the JSON result.
type report struct {
	metrics map[string]metric
	lines   []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64, samples string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.lines = append(r.lines, fmt.Sprintf("  %-44s %14.6g %-6s %s", name, v, unit, samples))
}

func main() {
	workload := flag.String("workload", "", "predict_refit, frontier_cold or fleet_frontier")
	seed := flag.Int64("seed", 1, "workload seed: the request stream depends only on it")
	seconds := flag.Int("seconds", 20, "length of each timed phase")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
	bin := flag.String("daemon", "", "heteromixd binary to launch")
	out := flag.String("out", ".bench_build", "directory for daemon logs and span files")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traceMode == 1, *bin, *out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// env is everything one run shares.
type env struct {
	def    workloadDef
	seed   int64
	dur    time.Duration
	bin    string
	out    string
	suite  *experiments.Suite
	load   *http.Client
	scrape *http.Client
	logw   io.Writer
}

func run(workload string, seed int64, dur time.Duration, traced bool, bin, out string) error {
	if bin == "" {
		return errors.New("-daemon is required")
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("daemon binary: %w", err)
	}
	if dur <= 0 {
		return errors.New("--seconds must be positive")
	}
	// The daemons fit their models with the default seed and noise; the
	// in-process reference uses the same suite, warmed in the same
	// canonical order.
	suite := experiments.NewSuite(experiments.SuiteOptions{NoiseSigma: 0.03, Seed: 1})
	if err := suite.WarmAllModels(); err != nil {
		return err
	}
	var def workloadDef
	switch workload {
	case "predict_refit":
		var err error
		if def, err = predictRefit(suite); err != nil {
			return err
		}
	case "frontier_cold":
		def = frontierCold()
	case "fleet_frontier":
		def = fleetFrontier()
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err := os.MkdirAll(filepath.Join(out, "logs"), 0o755); err != nil {
		return err
	}
	logf, err := os.Create(filepath.Join(out, "logs", workload+".log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	e := &env{def: def, seed: seed, dur: dur, bin: bin, out: out, suite: suite,
		load: newLoadClient(), scrape: newScrapeClient(), logw: logf}

	var res result
	if traced {
		res, err = e.runTraced()
	} else {
		res, err = e.runEndToEnd()
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// fleetBasePort is the fleet's fixed loopback port block: the
// coordinator listens on it and replica i on fleetBasePort+1+i. The
// coordinator places shards on replicas by a consistent-hash ring over
// the replica URLs, so random ports would give every run a different
// shard placement — and a different speed.
const fleetBasePort = 18180

// replicaURLs are the fleet replicas' base URLs, in -replicas order.
func replicaURLs() []string {
	var out []string
	for i := 0; i < 4; i++ {
		out = append(out, fmt.Sprintf("http://127.0.0.1:%d", fleetBasePort+1+i))
	}
	return out
}

// placement is the replica index each shard's first candidate lands on,
// computed with the coordinator's own ring.
func placement() []int {
	urls := replicaURLs()
	ring := shard.NewRing(urls, 0)
	out := make([]int, 4)
	for i := range out {
		first := ring.Successors("shard:" + strconv.Itoa(i))[0]
		for j, u := range urls {
			if u == first {
				out[i] = j
			}
		}
	}
	return out
}

// launched is one set of daemons: a lone daemon, or a fleet coordinator
// (front) with its four shard replicas.
type launched struct {
	procs []*daemon
	front *daemon
}

func (l launched) stop() {
	for i := len(l.procs) - 1; i >= 0; i-- {
		l.procs[i].stop()
	}
}

func (l launched) scrape(ctx context.Context, c *http.Client) ([]counters, error) {
	out := make([]counters, len(l.procs))
	for i, d := range l.procs {
		var err error
		if out[i], err = d.scrape(ctx, c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (e *env) launch() (launched, error) {
	var l launched
	if !e.def.fleet {
		port, err := freePort()
		if err != nil {
			return l, err
		}
		d, err := startDaemon(e.bin, port, e.logw)
		if err != nil {
			return l, err
		}
		l.procs, l.front = []*daemon{d}, d
		return l, nil
	}
	urls := replicaURLs()
	for i := range urls {
		d, err := startDaemon(e.bin, fleetBasePort+1+i, e.logw, "-shard", fmt.Sprintf("%d/4", i))
		if err != nil {
			l.stop()
			return l, err
		}
		l.procs = append(l.procs, d)
	}
	d, err := startDaemon(e.bin, fleetBasePort, e.logw, "-replicas", strings.Join(urls, ","))
	if err != nil {
		l.stop()
		return l, err
	}
	l.procs = append(l.procs, d)
	l.front = d
	return l, nil
}

// awaitReady polls every daemon's /readyz until it answers 200.
func (e *env) awaitReady(ctx context.Context, l launched) error {
	for _, d := range l.procs {
		for {
			if d.exited() {
				return fmt.Errorf("daemon %s exited during start-up (see %s)", d.base, filepath.Join(e.out, "logs"))
			}
			if _, err := get(ctx, e.scrape, d.base+"/readyz"); err == nil {
				break
			}
			if ctx.Err() != nil {
				return fmt.Errorf("daemon %s not ready: %w", d.base, ctx.Err())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// start launches the daemons and waits for the first successful answer
// to one request of each kind the workload sends; the duration is one
// setup_s sample.
func (e *env) start(ctx context.Context) (launched, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	t0 := time.Now()
	l, err := e.launch()
	if err != nil {
		return l, 0, err
	}
	if err := e.awaitReady(ctx, l); err != nil {
		l.stop()
		return l, 0, err
	}
	for _, r := range e.def.setup {
		if _, err := send(ctx, e.load, l.front.base, r); err != nil {
			l.stop()
			return l, 0, fmt.Errorf("set-up %s: %w", r.kind, err)
		}
	}
	return l, time.Since(t0), nil
}

// warm sends the untimed warm-up traffic; failures count.
func (e *env) warm(ctx context.Context, l launched) (attempted, failed int, firstErr error) {
	for _, r := range e.def.warm(e.seed) {
		attempted++
		if _, err := send(ctx, e.load, l.front.base, r); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return attempted, failed, firstErr
}

// measured is one timed phase with the daemon counter deltas around it.
type measured struct {
	phase
	d         delta
	front     delta // the user-facing daemon only
	completed int
}

func (e *env) measure(ctx context.Context, l launched, gen generator, dur time.Duration, tr *tracer) (measured, error) {
	var m measured
	before, err := l.scrape(ctx, e.scrape)
	if err != nil {
		return m, err
	}
	m.phase = runPhase(ctx, e.load, l.front.base, gen, dur, tr)
	after, err := l.scrape(ctx, e.scrape)
	if err != nil {
		return m, err
	}
	m.d = diff(before, after)
	n := len(l.procs) - 1
	m.front = diff(before[n:], after[n:])
	m.completed = len(m.lat)
	if m.completed == 0 {
		return m, fmt.Errorf("no request completed: %v", m.firstErr)
	}
	return m, nil
}

// verify runs the oracle over the phase's sampled answers.
func (e *env) verify(checks []sampleCheck) (checked, mismatched int, firstErr error) {
	o, err := newOracle(e.suite)
	if err != nil {
		return 0, 0, err
	}
	defer o.close()
	for _, c := range checks {
		checked++
		if err := o.check(c); err != nil {
			mismatched++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return checked - o.skipped, mismatched, firstErr
}

// outcome folds the phase, the oracle and the counter ledger into the
// result's correctness fields, printing what failed.
func (e *env) outcome(m measured, warmAtt, warmFail int) (result, error) {
	res := result{Attempted: m.attempted + warmAtt, Failed: m.failed + warmFail}
	checked, bad, oerr := e.verify(m.checks)
	if oerr != nil && bad == 0 {
		return res, oerr // the oracle itself could not run
	}
	res.Failed += bad
	// Every daemon-side failure the client did not already see (a
	// request error is also a non-200 the client counted).
	if extra := int(m.front.failures()) - m.failed; extra > 0 {
		res.Failed += extra
	}
	refits := int(m.d.counter("heteromixd_calib_refits_total"))
	ledgerOK := refits == m.writes
	res.Correct = res.Failed == 0 && ledgerOK
	fmt.Printf("workload %s seed %d: attempted %d (timed %d, warm-up %d), failed %d\n",
		e.def.name, e.seed, res.Attempted, m.attempted, warmAtt, res.Failed)
	fmt.Printf("  oracle: %d sampled answers checked against in-process references, %d mismatched\n", checked, bad)
	verdict := "ok"
	if !ledgerOK {
		verdict = "MISMATCH"
	}
	fmt.Printf("  ledger: calib.refits %d for %d fit writes sent (%s)\n", refits, m.writes, verdict)
	if m.firstErr != nil {
		fmt.Printf("  first request failure: %v\n", m.firstErr)
	}
	if oerr != nil {
		fmt.Printf("  first oracle mismatch: %v\n", oerr)
	}
	if e.def.fleet {
		fmt.Printf("  fleet shard placement (shard -> replica): %v\n", placement())
	}
	fmt.Printf("  stream sha256 (first %d requests): %s\n", streamHashLen, streamHash(e.def.gen(e.seed), streamHashLen))
	return res, nil
}

func (e *env) runEndToEnd() (result, error) {
	ctx := context.Background()
	var setups []float64
	var l launched
	for i := 0; i < setupStarts; i++ {
		var took time.Duration
		var err error
		l, took, err = e.start(ctx)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
		if i < setupStarts-1 {
			l.stop()
			e.load.CloseIdleConnections()
		}
	}
	defer l.stop()
	warmAtt, warmFail, werr := e.warm(ctx, l)
	if werr != nil {
		fmt.Printf("  first warm-up failure: %v\n", werr)
	}
	m, err := e.measure(ctx, l, e.def.gen(e.seed), e.dur, nil)
	if err != nil {
		return result{}, err
	}
	l.stop()
	if err := e.writeLatencies(m.phase); err != nil {
		return result{}, err
	}
	res, err := e.outcome(m, warmAtt, warmFail)
	if err != nil {
		return res, err
	}
	n := float64(m.completed)
	cnt := fmt.Sprintf("n=%d requests", m.completed)
	rep := newReport()
	rep.set("setup_s", "s", medianF(setups), fmt.Sprintf("median of n=%d fresh starts", len(setups)))
	rep.set("alloc_kb_per_req", "kB", m.d.totalAlloc/1024/n, cnt)
	rep.set("allocs_per_req", "1", m.d.mallocs/n, cnt)
	rep.set("peak_rss_mb", "MB", float64(m.d.peakRSS)/(1<<20), fmt.Sprintf("VmHWM summed over %d daemon(s)", len(l.procs)))
	// The timing metrics are printed but not bounded: this host's speed
	// changes by tens of percent from minute to minute (see README), more
	// than any bound a regression gate can use.
	timing := newReport()
	timing.set("throughput_rps", "req/s", n/m.elapsed.Seconds(), fmt.Sprintf("%s over %.2fs, 1 closed-loop connection", cnt, m.elapsed.Seconds()))
	timing.set("p50_ms", "ms", ms(quantile(m.lat, 0.5)), cnt)
	timing.set("p90_ms", "ms", ms(quantile(m.lat, 0.9)), fmt.Sprintf("%s, %d beyond", cnt, m.completed/10))
	timing.set("p99_ms", "ms", ms(quantile(m.lat, 0.99)), fmt.Sprintf("%s, %d beyond", cnt, m.completed/100))
	timing.set("cpu_ms_per_req", "ms", float64(m.d.cpu.Microseconds())/1e3/n, fmt.Sprintf("%s, %d daemon(s), %.2fs CPU", cnt, len(l.procs), m.d.cpu.Seconds()))
	fmt.Println("  bounded end-to-end metrics:")
	for _, line := range rep.lines {
		fmt.Println(line)
	}
	fmt.Println("  timing (printed, not bounded):")
	for _, line := range timing.lines {
		fmt.Println(line)
	}
	res.Metrics = rep.metrics
	return res, nil
}

// writeLatencies records every timed request's completion time and
// latency, in nanoseconds, for offline analysis of a run.
func (e *env) writeLatencies(p phase) error {
	dir := filepath.Join(e.out, "latency")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	for i, lat := range p.lat {
		fmt.Fprintf(&b, "%d %d\n", p.ends[i].Nanoseconds(), lat.Nanoseconds())
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.txt", e.def.name, e.seed)), []byte(b.String()), 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
