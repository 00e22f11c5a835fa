package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const cannedRecords = `{
  "description": "records",
  "benchmarks": {
    "BenchmarkWarm": {
      "gated": true,
      "ns_per_op": 2504,
      "bytes_per_op": 1776,
      "allocs_per_op": 12,
      "before": {
        "ns_per_op": 2536,
        "bytes_per_op": 1920,
        "allocs_per_op": 13
      },
      "note": "a scalar record"
    },
    "BenchmarkShard": {
      "gated": true,
      "ns_per_op": [2123, 3203],
      "bytes_per_op": [1568, 2832],
      "allocs_per_op": [12, 13],
      "note": "a ranged record over sub-benchmarks"
    },
    "BenchmarkOther": {
      "ns_per_op": 50,
      "bytes_per_op": 10,
      "allocs_per_op": 1,
      "note": "a record another make target measures, not gated"
    }
  },
  "ratios": {"x": 1}
}
`

const cannedBench = `goos: linux
goarch: amd64
pkg: heteromix/internal/cluster
BenchmarkWarm-2              	       3	      3676 ns/op	    1776 B/op	      12 allocs/op
BenchmarkWarm-2              	       3	      3100 ns/op	    1776 B/op	      12 allocs/op
BenchmarkWarm-2              	       3	      2900 ns/op	    1790 B/op	      12 allocs/op
BenchmarkShard/n=4/shard=0-2 	       3	     15297 ns/op	    2800 B/op	      13 allocs/op
BenchmarkShard/n=4/shard=1-2 	       3	     20820 ns/op	    1600 B/op	      12 allocs/op
BenchmarkUnrecorded-2        	       3	       100 ns/op	      10 B/op	       1 allocs/op
BenchmarkOther-2             	       3	       100 ns/op	     900 B/op	      90 allocs/op
PASS
ok  	heteromix/internal/cluster	0.052s
`

func writeRecords(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(cannedRecords), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckPassesWithinRecords: runs within 5% of scalar records and
// sub-benchmarks inside a ranged record pass; ns/op is printed, and an
// unrecorded benchmark or one whose record is not gated is listed and
// passes whatever its figures.
func TestCheckPassesWithinRecords(t *testing.T) {
	var out bytes.Buffer
	if err := run(writeRecords(t), false, nil, strings.NewReader(cannedBench), &out); err != nil {
		t.Fatalf("check failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"3100", "not gated", "BenchmarkUnrecorded", "no gated record", "[1568, 2832]"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "MISSING") {
		t.Errorf("the ungated record is reported missing:\n%s", out.String())
	}
}

// passing answers both gated records within their figures; each case
// below adds one line to it.
const passing = "BenchmarkWarm-2 3 2504 ns/op 1776 B/op 12 allocs/op\n" +
	"BenchmarkShard/n=4/shard=0-2 3 2504 ns/op 2000 B/op 12 allocs/op\n"

// TestCheckFailsOnDriftEitherWay: an allocation count above or below its
// record, or a sub-benchmark outside its range, fails; ns/op never does.
func TestCheckFailsOnDriftEitherWay(t *testing.T) {
	for name, bench := range map[string]string{
		"fewer allocs":     "BenchmarkWarm-2 3 2504 ns/op 1776 B/op 11 allocs/op\n",
		"more bytes":       "BenchmarkWarm-2 3 2504 ns/op 1900 B/op 12 allocs/op\n",
		"fewer bytes":      "BenchmarkWarm-2 3 2504 ns/op 1650 B/op 12 allocs/op\n",
		"outside its span": "BenchmarkShard/n=4/shard=3 3 2504 ns/op 2000 B/op 14 allocs/op\n",
	} {
		var out bytes.Buffer
		if err := run(writeRecords(t), false, nil, strings.NewReader(passing+bench), &out); err == nil || !strings.Contains(out.String(), "MOVED") {
			t.Errorf("%s: got %v, want a MOVED failure:\n%s", name, err, out.String())
		}
	}
	var out bytes.Buffer
	slow := "BenchmarkWarm-2 3 999999 ns/op 1776 B/op 12 allocs/op\n"
	if err := run(writeRecords(t), false, nil, strings.NewReader(passing+slow), &out); err != nil {
		t.Errorf("a slower run failed: %v", err)
	}
}

// TestCheckFailsOnMissingGatedRecord: a gated record that no run answers
// to fails, as when its benchmark is renamed or dropped from the make
// target's pattern, and the record is named in the output.
func TestCheckFailsOnMissingGatedRecord(t *testing.T) {
	for name, bench := range map[string]string{
		"dropped": "BenchmarkWarm-2 3 2504 ns/op 1776 B/op 12 allocs/op\n",
		"renamed": "BenchmarkWarm-2 3 2504 ns/op 1776 B/op 12 allocs/op\n" +
			"BenchmarkShards/n=4/shard=0-2 3 2504 ns/op 2000 B/op 12 allocs/op\n",
	} {
		var out bytes.Buffer
		err := run(writeRecords(t), false, nil, strings.NewReader(bench), &out)
		if err == nil || !strings.Contains(err.Error(), "1 gated records had no run") {
			t.Errorf("%s: got %v, want one gated record without a run:\n%s", name, err, out.String())
		}
		if !strings.Contains(out.String(), "BenchmarkShard ") || !strings.Contains(out.String(), "MISSING") {
			t.Errorf("%s: BenchmarkShard is not reported missing:\n%s", name, out.String())
		}
	}
}

// TestUpdateRewritesOnlyMeasuredFields: -update sets a gated record's
// B/op and allocs/op to the [min, max] of every run of its benchmarks
// and leaves its ns/op, "before", note, the ungated record and every
// other line as they were.
func TestUpdateRewritesOnlyMeasuredFields(t *testing.T) {
	path := writeRecords(t)
	bench := "BenchmarkWarm-2 3 84 ns/op 12500 B/op 76 allocs/op\n" +
		"BenchmarkWarm-2 3 90 ns/op 12500 B/op 78 allocs/op\n" +
		"BenchmarkWarm-2 3 80 ns/op 12500 B/op 77 allocs/op\n" +
		"BenchmarkShard/n=4/shard=0-2 3 10 ns/op 4576 B/op 13 allocs/op\n" +
		"BenchmarkShard/n=4/shard=1-2 3 20 ns/op 3312 B/op 12 allocs/op\n" +
		"BenchmarkOther-2 3 100 ns/op 900 B/op 90 allocs/op\n"
	if err := run(path, true, nil, strings.NewReader(bench), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.NewReplacer(
		`"bytes_per_op": 1776,`, `"bytes_per_op": 12500,`,
		`"allocs_per_op": 12,`, `"allocs_per_op": [76, 78],`,
		`"bytes_per_op": [1568, 2832],`, `"bytes_per_op": [3312, 4576],`,
		`"allocs_per_op": [12, 13],`, `"allocs_per_op": [12, 13],`,
	).Replace(cannedRecords)
	if string(got) != want {
		t.Errorf("rewritten records:\n%s\nwant:\n%s", got, want)
	}
	var out bytes.Buffer
	if err := run(path, false, nil, strings.NewReader(bench), &out); err != nil {
		t.Errorf("the rewritten records do not pass their own run: %v\n%s", err, out.String())
	}
}

// cannedShardRecords gives each shard of BenchmarkSliced its own record
// under its full name; the top-level record keeps the timings and is
// not gated. Shard 1's figures sit inside the range one record shared
// by both shards would hold, [1520, 2784] B and [12, 13] allocs, so only
// its own record can catch it moving.
const cannedShardRecords = `{
  "benchmarks": {
    "BenchmarkSliced": {
      "ns_per_op": [2253, 3524],
      "note": "timings over the shards; B/op and allocs/op gated per shard"
    },
    "BenchmarkSliced/n=4/shard=0": {
      "gated": true,
      "bytes_per_op": 2784,
      "allocs_per_op": 13
    },
    "BenchmarkSliced/n=4/shard=1": {
      "gated": true,
      "bytes_per_op": 1520,
      "allocs_per_op": 12
    }
  }
}
`

const slicedPassing = "BenchmarkSliced/n=4/shard=0-2 3 2500 ns/op 2784 B/op 13 allocs/op\n" +
	"BenchmarkSliced/n=4/shard=1-2 3 3500 ns/op 1520 B/op 12 allocs/op\n"

func writeShardRecords(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(cannedShardRecords), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckGatesEachSubRecord: a sub-benchmark with a record under its
// full name is checked against that record, so a shard that moves more
// than 5% from it fails even while it stays inside the other shards'
// spread, and a shard record without a run fails as missing.
func TestCheckGatesEachSubRecord(t *testing.T) {
	var out bytes.Buffer
	if err := run(writeShardRecords(t), false, nil, strings.NewReader(slicedPassing), &out); err != nil {
		t.Fatalf("check failed: %v\n%s", err, out.String())
	}
	for name, bench := range map[string]string{
		"bytes inside the shared range": "BenchmarkSliced/n=4/shard=0-2 3 2500 ns/op 2784 B/op 13 allocs/op\n" +
			"BenchmarkSliced/n=4/shard=1-2 3 3500 ns/op 1700 B/op 12 allocs/op\n",
		"allocs inside the shared range": "BenchmarkSliced/n=4/shard=0-2 3 2500 ns/op 2784 B/op 13 allocs/op\n" +
			"BenchmarkSliced/n=4/shard=1-2 3 3500 ns/op 1520 B/op 13 allocs/op\n",
	} {
		out.Reset()
		if err := run(writeShardRecords(t), false, nil, strings.NewReader(bench), &out); err == nil || !strings.Contains(out.String(), "MOVED") {
			t.Errorf("%s: got %v, want a MOVED failure:\n%s", name, err, out.String())
		}
	}
	for name, bench := range map[string]string{
		"shard without a run":    "BenchmarkSliced/n=4/shard=0-2 3 2500 ns/op 2784 B/op 13 allocs/op\n",
		"renamed sub-benchmarks": strings.ReplaceAll(slicedPassing, "n=4", "n=5"),
	} {
		out.Reset()
		if err := run(writeShardRecords(t), false, nil, strings.NewReader(bench), &out); err == nil || !strings.Contains(out.String(), "MISSING") {
			t.Errorf("%s: got %v, want a MISSING failure:\n%s", name, err, out.String())
		}
	}
}

// TestUpdateRewritesShardRecords: -update sets each shard's record from
// the runs of that shard alone and leaves every other line as it was.
func TestUpdateRewritesShardRecords(t *testing.T) {
	path := writeShardRecords(t)
	bench := slicedPassing +
		"BenchmarkSliced/n=4/shard=1-2 3 3500 ns/op 1568 B/op 12 allocs/op\n"
	if err := run(path, true, nil, strings.NewReader(bench), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Replace(cannedShardRecords, `"bytes_per_op": 1520,`, `"bytes_per_op": [1520, 1568],`, 1)
	if string(got) != want {
		t.Errorf("rewritten records:\n%s\nwant:\n%s", got, want)
	}
	var out bytes.Buffer
	if err := run(path, false, nil, strings.NewReader(bench), &out); err != nil {
		t.Errorf("the rewritten records do not pass their own run: %v\n%s", err, out.String())
	}
}

// TestServingShardRecordsGatePerShard: in the repository's
// BENCH_serving.json every shard of the sharded frontier benchmarks is
// gated against its own figures, so a run in which one shard moves 8%
// while staying inside the span of all shards' figures fails.
func TestServingShardRecordsGatePerShard(t *testing.T) {
	text, err := os.ReadFile("../../BENCH_serving.json")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := parseRecords(text)
	if err != nil {
		t.Fatal(err)
	}
	shards := []string{
		"BenchmarkGenericTableFrontierShard/n=4/shard=0", "BenchmarkGenericTableFrontierShard/n=4/shard=1",
		"BenchmarkGenericTableFrontierShard/n=4/shard=2", "BenchmarkGenericTableFrontierShard/n=4/shard=3",
		"BenchmarkGenericTableFrontierShard/n=7/shard=0", "BenchmarkGenericTableFrontierShard/n=7/shard=1",
		"BenchmarkGenericTableFrontierShard/n=7/shard=2", "BenchmarkGenericTableFrontierShard/n=7/shard=3",
		"BenchmarkGenericTableFrontierShard/n=7/shard=4", "BenchmarkGenericTableFrontierShard/n=7/shard=5",
		"BenchmarkGenericTableFrontierShard/n=7/shard=6",
		"BenchmarkGenericTableFrontierShardWarm/n=4/shard=0", "BenchmarkGenericTableFrontierShardWarm/n=4/shard=1",
		"BenchmarkGenericTableFrontierShardWarm/n=4/shard=2", "BenchmarkGenericTableFrontierShardWarm/n=4/shard=3",
	}
	// figures is each shard's recorded B/op, read through the record it
	// answers to (its own, or its top-level benchmark's shared range).
	figures := make([]span, len(shards))
	hi := 0.0
	for i, name := range shards {
		b, ok := field(recs[recordKey(name, recs)], "bytes_per_op")
		if !ok {
			t.Fatalf("%s: no bytes_per_op record", name)
		}
		figures[i], hi = b, max(hi, b.hi)
	}
	runs := func(moved int) []result {
		var rs []result
		for i, name := range shards {
			b := figures[i].lo
			if i == moved {
				b *= 1.08
			}
			a, _ := field(recs[recordKey(name, recs)], "allocs_per_op")
			rs = append(rs, result{name: name, ns: []float64{1}, bytes: []float64{b}, allocs: []float64{a.lo}})
		}
		return rs
	}
	if moved, _, err := check(text, runs(-1), io.Discard); err != nil || moved != 0 {
		t.Fatalf("every shard at its recorded figures: %d moved, err %v", moved, err)
	}
	// The moved shard is one whose 8% rise stays below the largest
	// shard's figure, inside a range shared by all shards.
	for i, f := range figures {
		if f.lo*1.08 > hi {
			continue
		}
		if moved, _, err := check(text, runs(i), io.Discard); err != nil || moved != 1 {
			t.Errorf("%s 8%% over its record, inside the shards' span: %d moved, want 1 (err %v)", shards[i], moved, err)
		}
	}
}
