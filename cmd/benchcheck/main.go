// Command benchcheck compares `go test -bench -benchmem` output with the
// records in BENCH_serving.json, so a record cannot sit stale unnoticed.
// It checks the records marked "gated": true. A gated record whose
// allocs/op or B/op lies outside the record by more than the tolerance,
// in either direction, fails the check: a drop the record does not show
// fails as surely as a regression. A gated record that no benchmark in
// the input answers to fails too, so renaming a benchmark or dropping it
// from its make target cannot leave its record behind unchecked. ns/op
// is printed beside its record and never gated or rewritten, because
// timings on a shared machine spread far wider than allocation figures
// do. A record is a number or a [min, max] range; every sub-benchmark of
// a record (BenchmarkX/a, BenchmarkX/b) is checked against it, unless
// the sub-benchmark has a record of its own under its full name.
// Benchmarks with no gated record are listed and pass. With -update the
// gated records' B/op and allocs/op are rewritten in place instead.
//
// Usage, from the repository root:
//
//	go test ./internal/cluster -run '^$' -bench . -benchmem | benchcheck [-update] [file ...]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// tolerance is how far past its record, either way, a run's allocs/op
// or B/op may lie. Eight runs of make bench-generic and bench-stream at
// -benchtime=3x repeat the kernel benchmarks' figures exactly; the
// server benchmarks' vary by up to 2 allocations and 2% of their
// bytes with pooled-buffer reuse. Records keep that spread as [min,
// max] ranges (-update), so 5% absorbs what a single run adds to it and
// still catches a one-allocation move on any benchmark that allocates
// fewer than 20 times.
const tolerance = 0.05

func main() {
	update := flag.Bool("update", false, "rewrite the gated records' B/op and allocs/op from the input instead of checking them")
	flag.Parse()
	if err := run("BENCH_serving.json", *update, flag.Args(), os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(1)
	}
}

func run(records string, update bool, files []string, stdin io.Reader, out io.Writer) error {
	var in []io.Reader
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		in = append(in, f)
	}
	if len(in) == 0 {
		in = append(in, stdin)
	}
	runs, err := parseBench(io.MultiReader(in...))
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return fmt.Errorf("no benchmark results in the input")
	}
	text, err := os.ReadFile(records)
	if err != nil {
		return err
	}
	if update {
		text, err = rewrite(text, runs)
		if err != nil {
			return err
		}
		return os.WriteFile(records, text, 0o644)
	}
	moved, missing, err := check(text, runs, out)
	if err != nil {
		return err
	}
	if moved > 0 || missing > 0 {
		return fmt.Errorf("%d figures moved past their records by more than %.0f%% (re-record them with -update if the change is meant); %d gated records had no run", moved, tolerance*100, missing)
	}
	return nil
}

// result is one benchmark's figures, one sample per run.
type result struct {
	name              string // as printed, less the GOMAXPROCS suffix
	ns, bytes, allocs []float64
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads benchmark result lines ("BenchmarkX-2  3  84 ns/op
// 12 B/op  1 allocs/op") and returns each benchmark's figures, in
// first-seen order.
func parseBench(r io.Reader) ([]result, error) {
	var out []result
	seen := map[string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // not a result line
		}
		name := procSuffix.ReplaceAllString(f[0], "")
		i, ok := seen[name]
		if !ok {
			i = len(out)
			seen[name] = i
			out = append(out, result{name: name})
		}
		r := &out[i]
		for j := 2; j+1 < len(f); j += 2 {
			v, err := strconv.ParseFloat(f[j], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad figure %q", name, f[j])
			}
			switch f[j+1] {
			case "ns/op":
				r.ns = append(r.ns, v)
			case "B/op":
				r.bytes = append(r.bytes, v)
			case "allocs/op":
				r.allocs = append(r.allocs, v)
			}
		}
	}
	return out, sc.Err()
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	v = slices.Clone(v)
	slices.Sort(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

// recordKey is the record a benchmark answers to: its own name, or the
// name of its top-level benchmark for a sub-benchmark.
func recordKey(name string, recs map[string]map[string]json.RawMessage) string {
	if _, ok := recs[name]; ok {
		return name
	}
	top, _, _ := strings.Cut(name, "/")
	return top
}

// span is a record's figure: lo == hi for a number.
type span struct{ lo, hi float64 }

func (s span) String() string {
	if s.lo == s.hi {
		return strconv.FormatFloat(s.lo, 'f', -1, 64)
	}
	return fmt.Sprintf("[%s, %s]", strconv.FormatFloat(s.lo, 'f', -1, 64), strconv.FormatFloat(s.hi, 'f', -1, 64))
}

// field reads a record's figure, a number or a [min, max] pair.
func field(rec map[string]json.RawMessage, key string) (span, bool) {
	raw, ok := rec[key]
	if !ok {
		return span{}, false
	}
	var v float64
	if json.Unmarshal(raw, &v) == nil {
		return span{v, v}, true
	}
	var r []float64
	if json.Unmarshal(raw, &r) == nil && len(r) == 2 {
		return span{r[0], r[1]}, true
	}
	return span{}, false
}

// within reports whether v lies in s widened by tol either way.
func within(v float64, s span, tol float64) bool {
	return v >= s.lo*(1-tol) && v <= s.hi*(1+tol)
}

func parseRecords(text []byte) (map[string]map[string]json.RawMessage, error) {
	var file struct {
		Benchmarks map[string]map[string]json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(text, &file); err != nil {
		return nil, fmt.Errorf("records: %w", err)
	}
	return file.Benchmarks, nil
}

// gated reports whether a record is marked "gated": true.
func gated(rec map[string]json.RawMessage) bool {
	var g bool
	return json.Unmarshal(rec["gated"], &g) == nil && g
}

// check prints every measured benchmark beside its record and returns
// how many gated figures fell outside their records, every run of a
// benchmark checked, and how many gated records no run answered to.
func check(text []byte, runs []result, out io.Writer) (moved, missing int, err error) {
	recs, err := parseRecords(text)
	if err != nil {
		return 0, 0, err
	}
	fmt.Fprintf(out, "%-56s %-10s %12s %20s\n", "benchmark", "figure", "measured", "recorded")
	row := func(name, unit string, v float64, rec, status string) {
		fmt.Fprintf(out, "%-56s %-10s %12.0f %20s  %s\n", name, unit, v, rec, status)
	}
	answered := map[string]bool{}
	for _, r := range runs {
		key := recordKey(r.name, recs)
		rec, ok := recs[key]
		if !ok || !gated(rec) {
			row(r.name, "ns/op", median(r.ns), "-", "no gated record")
			continue
		}
		answered[key] = true
		recNS := "-"
		if ns, ok := field(rec, "ns_per_op"); ok {
			recNS = ns.String()
		}
		row(r.name, "ns/op", median(r.ns), recNS, "not gated")
		for _, g := range []struct {
			key, unit string
			v         []float64
		}{{"bytes_per_op", "B/op", r.bytes}, {"allocs_per_op", "allocs/op", r.allocs}} {
			want, ok := field(rec, g.key)
			if !ok {
				continue
			}
			for _, v := range g.v {
				status := "ok"
				if !within(v, want, tolerance) {
					status = "MOVED"
					moved++
				}
				row(r.name, g.unit, v, want.String(), status)
			}
		}
	}
	var names []string
	for name, rec := range recs {
		if gated(rec) && !answered[name] {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-56s %-10s %12s %20s  %s\n", name, "-", "no run", "gated", "MISSING")
	}
	return moved, len(names), nil
}

// rewrite sets the bytes_per_op and allocs_per_op fields a gated record
// already has to the [min, max] of every run of the record's
// benchmarks, one number when they agree, so a figure that varies from
// run to run is recorded with its spread. It edits those lines only, so
// ns/op, notes, "before" figures and layout stay as they are.
func rewrite(text []byte, runs []result) ([]byte, error) {
	recs, err := parseRecords(text)
	if err != nil {
		return nil, err
	}
	var keys []string
	by := map[string]*result{}
	for _, r := range runs {
		key := recordKey(r.name, recs)
		if rec, ok := recs[key]; !ok || !gated(rec) {
			continue
		}
		f := by[key]
		if f == nil {
			f = &result{}
			by[key] = f
			keys = append(keys, key)
		}
		f.bytes = append(f.bytes, r.bytes...)
		f.allocs = append(f.allocs, r.allocs...)
	}
	for _, key := range keys {
		f := by[key]
		for _, g := range []struct {
			field string
			v     []float64
		}{{"bytes_per_op", f.bytes}, {"allocs_per_op", f.allocs}} {
			if _, ok := recs[key][g.field]; !ok || len(g.v) == 0 {
				continue
			}
			if text, err = setField(text, key, g.field, format(g.v)); err != nil {
				return nil, err
			}
		}
	}
	return text, nil
}

// format renders one figure as a number, several as their [min, max].
func format(v []float64) string {
	lo, hi := slices.Min(v), slices.Max(v)
	num := func(x float64) string { return strconv.FormatFloat(math.Round(x), 'f', -1, 64) }
	if len(v) == 1 || lo == hi {
		return num(lo)
	}
	return "[" + num(lo) + ", " + num(hi) + "]"
}

// setField replaces the value of the record's own field (not one nested
// in its "before") in the indented records text.
func setField(text []byte, record, field, value string) ([]byte, error) {
	lines := bytes.SplitAfter(text, []byte("\n"))
	head := []byte(strconv.Quote(record) + ": {")
	start, indent := -1, 0
	for i, l := range lines {
		if t := bytes.TrimLeft(l, " "); bytes.HasPrefix(t, head) {
			start, indent = i, len(l)-len(t)
			break
		}
	}
	if start < 0 {
		return nil, fmt.Errorf("record %s not found", record)
	}
	prefix := []byte(strings.Repeat(" ", indent+2) + strconv.Quote(field) + ": ")
	for i := start + 1; i < len(lines); i++ {
		l := lines[i]
		if len(l)-len(bytes.TrimLeft(l, " ")) <= indent {
			break // the record's closing brace
		}
		if !bytes.HasPrefix(l, prefix) {
			continue
		}
		rest := strings.TrimRight(string(l[len(prefix):]), "\n")
		tail := ""
		if strings.HasSuffix(rest, ",") {
			tail = ","
		}
		lines[i] = []byte(string(prefix) + value + tail + "\n")
		return bytes.Join(lines, nil), nil
	}
	return nil, fmt.Errorf("record %s has no line for %s", record, field)
}
