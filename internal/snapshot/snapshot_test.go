package snapshot

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"heteromix/internal/cluster"
)

// testSnapshot builds a representative snapshot: two two-type tables,
// one generic pair whose pruned table carries a candidate set, three
// result bodies.
func testSnapshot() *Snapshot {
	cfg := func(cores int, f, k, epu float64) cluster.GenericConfigDump {
		return cluster.GenericConfigDump{
			Cores:         cores,
			FrequencyBits: math.Float64bits(f),
			TimeBits:      math.Float64bits(k),
			EnergyBits:    math.Float64bits(epu),
		}
	}
	gdump := cluster.GenericTableDump{Types: []cluster.GenericTypeDump{
		{
			MaxNodes:    2,
			SwitchWBits: math.Float64bits(60),
			Configs:     []cluster.GenericConfigDump{cfg(4, 1.1e9, 3.2e-6, 9.9e-5)},
		},
		{
			MaxNodes: 1,
			Configs:  []cluster.GenericConfigDump{cfg(8, 2.2e9, 7.7e-7, 2.2e-4)},
		},
	}}
	pruned := gdump
	pruned.Candidates = []uint64{0, 3, 300}
	return &Snapshot{
		Meta: Meta{
			BuildVersion:     "heteromixd test (abc123, go1.x)",
			ProfileHash:      "00aabbccddeeff11",
			ModelFingerprint: "suite|seed=1|noise=0.03|arm=a9|amd=k10",
			CreatedUnixNano:  1754600000_000000000,
		},
		Tables: []TableEntry{
			{
				Key: "table|ep@v1|false", Workload: "ep",
				Dump: cluster.GenericTableDump{Types: []cluster.GenericTypeDump{
					{MaxNodes: 1, SwitchWBits: math.Float64bits(60),
						Configs: []cluster.GenericConfigDump{cfg(1, 0.8e9, 1e-5, 2e-4), cfg(4, 1.1e9, 3e-6, 2.5e-4)}},
					{MaxNodes: 1, Configs: []cluster.GenericConfigDump{cfg(8, 2.2e9, 8e-7, 6e-4)}},
				}},
			},
			{
				Key: "table|memcached@v2|true", Workload: "memcached", NoSwitch: true,
				Dump: cluster.GenericTableDump{Types: []cluster.GenericTypeDump{
					{MaxNodes: 1, Configs: []cluster.GenericConfigDump{cfg(2, 0.8e9, 5e-6, 1e-4)}},
					{MaxNodes: 1, Configs: []cluster.GenericConfigDump{cfg(4, 1.9e9, 9e-7, 4e-4)}},
				}},
			},
		},
		Generic: []GenericEntry{
			{Key: "generic|ep@v1|arm-cortex-a9:2:true|amd-opteron-k10:1:false", Full: gdump, Pruned: pruned},
		},
		Results: []ResultEntry{
			{Key: "predict|ep@v1|{...}", Body: []byte(`{"workload":"ep"}`)},
			{Key: "enumerate|ep@v1|{...}", Body: []byte(`{"points":[]}`)},
			{Key: "empty|ep@v1|{}", Body: []byte{}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := testSnapshot()
	data := Encode(want)
	if want.FileHash == "" {
		t.Fatal("Encode must set FileHash")
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	wantMeta := want.Meta
	wantMeta.FormatVersion = FormatVersion
	if got.Meta != wantMeta {
		t.Fatalf("meta mismatch:\n got %+v\nwant %+v", got.Meta, wantMeta)
	}
	if got.FileHash != want.FileHash {
		t.Fatalf("FileHash %q != %q", got.FileHash, want.FileHash)
	}
	if !reflect.DeepEqual(got.Tables, want.Tables) {
		t.Fatalf("tables mismatch:\n got %+v\nwant %+v", got.Tables, want.Tables)
	}
	if !reflect.DeepEqual(got.Generic, want.Generic) {
		t.Fatalf("generic mismatch")
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("results: got %d want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i].Key != want.Results[i].Key || !bytes.Equal(got.Results[i].Body, want.Results[i].Body) {
			t.Fatalf("result %d mismatch", i)
		}
	}
	// Deterministic: same snapshot, same bytes.
	if !bytes.Equal(data, Encode(want)) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := Encode(testSnapshot())
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"magic only", func(b []byte) []byte { return b[:8] }, ErrTruncated},
		{"wrong magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"truncated footer", func(b []byte) []byte { return b[:len(b)-10] }, ErrTruncated},
		{"bit flip in body", func(b []byte) []byte { b[20] ^= 0x40; return b }, ErrFileHash},
		{"bit flip in hash", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrFileHash},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), valid...)
			b = tc.mutate(b)
			s, err := Decode(b)
			if err == nil {
				t.Fatal("corrupted snapshot decoded without error")
			}
			if s != nil {
				t.Fatal("corrupted decode must return a nil snapshot")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}
}

// TestDecodeRefusesOlderFormat: testdata/format1.snap and format2.snap
// are cache snapshots format-1 and format-2 builds wrote (format 2
// carried no candidate sets). Decode must call each incompatible (so a
// daemon preheating from it starts cold) rather than corrupt.
func TestDecodeRefusesOlderFormat(t *testing.T) {
	for _, version := range []string{"1", "2"} {
		data, err := os.ReadFile(filepath.Join("testdata", "format"+version+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		s, err := Decode(data)
		if s != nil {
			t.Fatalf("a format-%s file must not decode", version)
		}
		var ie *IncompatibleError
		if !errors.As(err, &ie) || ie.Field != "format_version" || ie.Have != version {
			t.Fatalf("want a format_version IncompatibleError with Have=%s, got %v", version, err)
		}
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("a format mismatch must match ErrFormat, got %v", err)
		}
	}
}

func TestDecodeLimited(t *testing.T) {
	data := Encode(testSnapshot())
	if _, err := DecodeLimited(data, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeLimited(data, int64(len(data))-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestMetaCompatible(t *testing.T) {
	m := Meta{
		FormatVersion:    FormatVersion,
		BuildVersion:     "b1",
		ProfileHash:      "p1",
		ModelFingerprint: "f1",
	}
	if err := m.Compatible("p1", "f1", "b1"); err != nil {
		t.Fatal(err)
	}
	var ie *IncompatibleError
	if err := m.Compatible("p2", "f1", "b1"); !errors.As(err, &ie) || ie.Field != "profile_hash" {
		t.Fatalf("want profile_hash mismatch, got %v", err)
	}
	if err := m.Compatible("p1", "f2", "b1"); !errors.As(err, &ie) || ie.Field != "model_fingerprint" {
		t.Fatalf("want model_fingerprint mismatch, got %v", err)
	}
	if err := m.Compatible("p1", "f1", "b2"); !errors.As(err, &ie) || ie.Field != "build_version" {
		t.Fatalf("want build_version mismatch, got %v", err)
	}
	m.FormatVersion = FormatVersion + 1
	if err := m.Compatible("p1", "f1", "b1"); !errors.As(err, &ie) || ie.Field != "format_version" {
		t.Fatalf("want format_version mismatch, got %v", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	want := testSnapshot()
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.FileHash != want.FileHash {
		t.Fatalf("FileHash %q != %q", got.FileHash, want.FileHash)
	}
	// Size cap applies to files too.
	if _, err := ReadFile(path, 16); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	// Missing file answers os.ErrNotExist.
	if _, err := ReadFile(filepath.Join(dir, "absent.snap"), 0); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	// A corrupted file on disk never replaces the in-memory state.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, 0); err == nil {
		t.Fatal("corrupted file read without error")
	}
}
