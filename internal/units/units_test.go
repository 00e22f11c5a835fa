package units

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

func TestHertzString(t *testing.T) {
	cases := []struct {
		h    Hertz
		want string
	}{
		{1.4 * GHz, "1.40GHz"},
		{200 * MHz, "200.0MHz"},
		{32 * KHz, "32.0kHz"},
		{5, "5Hz"},
	}
	for _, c := range cases {
		if got := c.h.String(); got != c.want {
			t.Errorf("Hertz(%v).String() = %q, want %q", float64(c.h), got, c.want)
		}
	}
}

// fmtHertz is Hertz.String as it was written with fmt, the oracle for
// the strconv form.
func fmtHertz(h Hertz) string {
	switch {
	case h >= GHz:
		return fmt.Sprintf("%.2fGHz", float64(h)/1e9)
	case h >= MHz:
		return fmt.Sprintf("%.1fMHz", float64(h)/1e6)
	case h >= KHz:
		return fmt.Sprintf("%.1fkHz", float64(h)/1e3)
	default:
		return fmt.Sprintf("%.0fHz", float64(h))
	}
}

func TestHertzAppendMatchesFmt(t *testing.T) {
	special := []Hertz{0, -1, 999.5, KHz, MHz - 1, GHz, 2.125 * GHz, 1.005 * GHz,
		Hertz(math.Inf(1)), Hertz(math.Inf(-1)), Hertz(math.NaN())}
	check := func(h Hertz) bool {
		want := fmtHertz(h)
		if got := string(h.Append([]byte("x"))); got != "x"+want {
			t.Logf("Hertz(%v).Append = %q, want %q", float64(h), got, "x"+want)
			return false
		}
		return h.String() == want
	}
	for _, h := range special {
		if !check(h) {
			t.Errorf("Hertz(%v) formats differently from fmt", float64(h))
		}
	}
	if err := quick.Check(func(v float64) bool { return check(Hertz(v)) }, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(ghz uint16) bool { return check(Hertz(float64(ghz) * 1e6)) }, nil); err != nil {
		t.Error(err)
	}
}

func TestHertzGHzValue(t *testing.T) {
	if got := (2.1 * GHz).GHzValue(); !almostEqual(got, 2.1, 1e-12) {
		t.Errorf("GHzValue = %v, want 2.1", got)
	}
}

func TestWattTimes(t *testing.T) {
	// 60 W for half a second is 30 J — the AMD peak power case.
	if got := Watt(60).Times(0.5); got != Joule(30) {
		t.Errorf("60W x 0.5s = %v, want 30J", got)
	}
}

func TestJouleOver(t *testing.T) {
	if got := Joule(30).Over(0.5); got != Watt(60) {
		t.Errorf("30J / 0.5s = %v, want 60W", got)
	}
	if got := Joule(30).Over(0); got != 0 {
		t.Errorf("division by zero duration should give 0W, got %v", got)
	}
	if got := Joule(30).Over(-1); got != 0 {
		t.Errorf("negative duration should give 0W, got %v", got)
	}
}

func TestPowerEnergyRoundTrip(t *testing.T) {
	f := func(w, s float64) bool {
		w = math.Abs(w)
		s = math.Abs(s)
		if s == 0 || w == 0 || math.IsInf(w, 0) || math.IsInf(s, 0) || w > 1e100 || s > 1e100 {
			return true
		}
		back := Watt(w).Times(Seconds(s)).Over(Seconds(s))
		return almostEqual(float64(back), w, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSecondsConversions(t *testing.T) {
	s := Seconds(0.25)
	if got := s.Millis(); got != 250 {
		t.Errorf("Millis = %v, want 250", got)
	}
	if got := s.Duration(); got != 250*time.Millisecond {
		t.Errorf("Duration = %v, want 250ms", got)
	}
	if got := FromDuration(1500 * time.Millisecond); got != Seconds(1.5) {
		t.Errorf("FromDuration = %v, want 1.5", got)
	}
}

func TestSecondsDurationSaturates(t *testing.T) {
	if got := Seconds(1e300).Duration(); got != time.Duration(math.MaxInt64) {
		t.Errorf("huge duration should saturate at MaxInt64, got %v", got)
	}
	if got := Seconds(-1e300).Duration(); got != time.Duration(math.MinInt64) {
		t.Errorf("huge negative duration should saturate at MinInt64, got %v", got)
	}
}

func TestSecondsString(t *testing.T) {
	cases := []struct {
		s    Seconds
		want string
	}{
		{1.5, "1.500s"},
		{0.0412, "41.20ms"},
		{42e-6, "42.00us"},
		{42e-9, "42ns"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("Seconds(%v).String() = %q, want %q", float64(c.s), got, c.want)
		}
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		b    Bytes
		want string
	}{
		{2 * GiB, "2.00GiB"},
		{50 * MiB, "50.00MiB"},
		{1536, "1.50KiB"},
		{12, "12B"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("Bytes(%v).String() = %q, want %q", float64(c.b), got, c.want)
		}
	}
}

func TestMbps(t *testing.T) {
	// Table 1: ARM NIC is 100 Mbps = 12.5 MB/s; AMD is 1 Gbps = 125 MB/s.
	if got := Mbps(100); got != BytesPerSecond(12.5e6) {
		t.Errorf("Mbps(100) = %v, want 12.5e6 B/s", float64(got))
	}
	if got := Mbps(1000); got != BytesPerSecond(125e6) {
		t.Errorf("Mbps(1000) = %v, want 125e6 B/s", float64(got))
	}
}

func TestTransferTime(t *testing.T) {
	// 50 MB over 12.5 MB/s takes 4 s: one ARM node streaming one
	// memcached job, the scenario behind Figure 6's 30 ms floor.
	got := Mbps(100).TransferTime(50e6)
	if !almostEqual(float64(got), 4.0, 1e-12) {
		t.Errorf("transfer time = %v, want 4s", got)
	}
	if got := BytesPerSecond(0).TransferTime(1); !math.IsInf(float64(got), 1) {
		t.Errorf("zero-rate transfer should be +Inf, got %v", got)
	}
	if got := BytesPerSecond(0).TransferTime(0); got != 0 {
		t.Errorf("zero bytes at zero rate should be 0, got %v", got)
	}
}

func TestCyclesAt(t *testing.T) {
	// 1.4e9 cycles at 1.4 GHz is exactly one second.
	if got := Cycles(1.4e9).At(1.4 * GHz); !almostEqual(float64(got), 1, 1e-12) {
		t.Errorf("cycles at frequency = %v, want 1s", got)
	}
	if got := Cycles(100).At(0); !math.IsInf(float64(got), 1) {
		t.Errorf("cycles at zero frequency should be +Inf, got %v", got)
	}
	if got := Cycles(0).At(0); got != 0 {
		t.Errorf("zero cycles at zero frequency should be 0, got %v", got)
	}
}

func TestCyclesTimeScalesInverselyWithFrequency(t *testing.T) {
	f := func(cyc, freq float64) bool {
		cyc = math.Abs(cyc)
		freq = math.Abs(freq)
		if freq < 1 || freq > 1e12 || cyc > 1e15 {
			return true
		}
		t1 := Cycles(cyc).At(Hertz(freq))
		t2 := Cycles(cyc).At(Hertz(2 * freq))
		return almostEqual(float64(t1), 2*float64(t2), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
