package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"heteromix/internal/experiments"
)

func testSuite() *experiments.Suite {
	return experiments.NewSuite(experiments.SuiteOptions{NoiseSigma: 0.03, Seed: 1})
}

// TestGoldenPaperOutputs pins the paper commands' output byte for byte
// against testdata/golden, captured from `heteromix <cmd>` at the
// default noise and seed. Each command gets a fresh suite, as each CLI
// invocation does. The files are reference data: a refactor that
// changes them has changed the paper's results, so they are never
// regenerated to make this test pass.
func TestGoldenPaperOutputs(t *testing.T) {
	for _, cmd := range []string{
		"table3", "table4", "ppr", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "ablation", "headline",
	} {
		t.Run(cmd, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", cmd+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(testSuite(), cmd, &got); err != nil {
				t.Fatalf("%s: %v", cmd, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) || i < len(wl); i++ {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("%s differs from golden at line %d:\n got %q\nwant %q", cmd, i+1, g, w)
					}
				}
			}
		})
	}
}

func TestRunUnknownCommand(t *testing.T) {
	if err := run(testSuite(), "make-coffee", io.Discard); err == nil {
		t.Error("unknown command should error")
	}
}

func TestRunPPR(t *testing.T) {
	if err := run(testSuite(), "ppr", io.Discard); err != nil {
		t.Errorf("ppr: %v", err)
	}
}

func TestRunFig3(t *testing.T) {
	if err := run(testSuite(), "fig3", io.Discard); err != nil {
		t.Errorf("fig3: %v", err)
	}
}

func TestRunFig2(t *testing.T) {
	if err := run(testSuite(), "fig2", io.Discard); err != nil {
		t.Errorf("fig2: %v", err)
	}
}

func TestRunHeadline(t *testing.T) {
	if err := run(testSuite(), "headline", io.Discard); err != nil {
		t.Errorf("headline: %v", err)
	}
}

// TestParallelAllMatchesSerial is the core determinism contract of the
// parallel runner: for the same seed, the concurrent `all` must produce
// the serial run's bytes exactly. Each mode gets a fresh suite so the
// parallel run cannot ride on caches a serial run populated.
func TestParallelAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full all run is slow")
	}
	// The worker count follows GOMAXPROCS; pin it above 1 so the stages
	// genuinely interleave even on a single-core CI box.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var serial, parallel bytes.Buffer
	if err := runAll(testSuite(), &serial, true); err != nil {
		t.Fatalf("serial all: %v", err)
	}
	if err := runAll(testSuite(), &parallel, false); err != nil {
		t.Fatalf("parallel all: %v", err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Errorf("parallel all output differs from serial: %d vs %d bytes",
			parallel.Len(), serial.Len())
	}
}
