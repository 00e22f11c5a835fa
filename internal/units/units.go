// Package units provides the scalar quantities used throughout heteromix:
// frequencies, powers, energies, data sizes and rates, and durations.
//
// All quantities are thin float64 wrappers. They exist to make the model
// code read like the paper's equations (watts times seconds yield joules)
// and to catch dimensional mistakes in review, not to build a full
// dimensional-analysis system.
package units

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Hertz is a frequency in cycles per second. Core clock frequencies in the
// paper range from 0.2 GHz (ARM Cortex-A9 minimum) to 2.1 GHz (AMD K10
// maximum).
type Hertz float64

// Common frequency multiples.
const (
	KHz Hertz = 1e3
	MHz Hertz = 1e6
	GHz Hertz = 1e9
)

// GHzValue reports the frequency in gigahertz.
func (h Hertz) GHzValue() float64 { return float64(h) / 1e9 }

// String formats the frequency with an appropriate SI prefix.
func (h Hertz) String() string { return string(h.Append(nil)) }

// Append appends String's form of the frequency to b, without fmt. A
// whole number of hertz that the branch's precision shows exactly —
// every P-state of the modeled nodes — renders with integer arithmetic,
// which gives strconv's digits: the division strconv would format is
// correctly rounded, so it lies within half an ulp of the exact decimal,
// far from any rounding boundary below 2^53 Hz. Everything else takes
// strconv, whose fixed-precision 'f' path is exact but slow.
func (h Hertz) Append(b []byte) []byte {
	// whole: a whole number of hertz, non-negative (not -0) and below
	// 2^53; NaN and ±Inf fail the bound. n is read only when whole.
	f := float64(h)
	whole := !math.Signbit(f) && f < 1<<53 && math.Trunc(f) == f
	n := uint64(f)
	switch {
	case h >= GHz:
		if whole && n%1e7 == 0 {
			return append(appendScaled(b, n/1e7, 2), "GHz"...)
		}
		return append(strconv.AppendFloat(b, float64(h)/1e9, 'f', 2, 64), "GHz"...)
	case h >= MHz:
		if whole && n%1e5 == 0 {
			return append(appendScaled(b, n/1e5, 1), "MHz"...)
		}
		return append(strconv.AppendFloat(b, float64(h)/1e6, 'f', 1, 64), "MHz"...)
	case h >= KHz:
		if whole && n%100 == 0 {
			return append(appendScaled(b, n/100, 1), "kHz"...)
		}
		return append(strconv.AppendFloat(b, float64(h)/1e3, 'f', 1, 64), "kHz"...)
	default:
		if whole {
			return append(strconv.AppendUint(b, n, 10), "Hz"...)
		}
		return append(strconv.AppendFloat(b, float64(h), 'f', 0, 64), "Hz"...)
	}
}

// appendScaled appends q/10^digits with exactly digits decimals.
func appendScaled(b []byte, q uint64, digits int) []byte {
	p := uint64(1)
	for i := 0; i < digits; i++ {
		p *= 10
	}
	b = append(strconv.AppendUint(b, q/p, 10), '.')
	for f := q % p; p > 1; f %= p {
		p /= 10
		b = append(b, byte('0'+f/p))
	}
	return b
}

// Watt is a power in joules per second.
type Watt float64

// String formats the power in watts.
func (w Watt) String() string { return fmt.Sprintf("%.2fW", float64(w)) }

// Times returns the energy dissipated by drawing power w for duration d.
func (w Watt) Times(d Seconds) Joule { return Joule(float64(w) * float64(d)) }

// Joule is an energy.
type Joule float64

// String formats the energy in joules.
func (j Joule) String() string { return fmt.Sprintf("%.3fJ", float64(j)) }

// Over returns the average power of spending energy j over duration d.
// It returns 0 for non-positive durations.
func (j Joule) Over(d Seconds) Watt {
	if d <= 0 {
		return 0
	}
	return Watt(float64(j) / float64(d))
}

// Seconds is a duration in seconds, kept as float64 because the model
// manipulates durations algebraically (ratios, maxima, divisions by node
// counts) where time.Duration's integer nanoseconds are inconvenient.
type Seconds float64

// Millis reports the duration in milliseconds.
func (s Seconds) Millis() float64 { return float64(s) * 1e3 }

// Duration converts to a time.Duration, saturating at the int64 limits.
func (s Seconds) Duration() time.Duration {
	ns := float64(s) * 1e9
	if ns > math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	if ns < math.MinInt64 {
		return time.Duration(math.MinInt64)
	}
	return time.Duration(ns)
}

// String formats the duration with a natural unit.
func (s Seconds) String() string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.3fs", float64(s))
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", float64(s)*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.2fus", float64(s)*1e6)
	default:
		return fmt.Sprintf("%.0fns", float64(s)*1e9)
	}
}

// FromDuration converts a time.Duration to Seconds.
func FromDuration(d time.Duration) Seconds { return Seconds(d.Seconds()) }

// Bytes is a data size in bytes.
type Bytes float64

// Common byte multiples (binary).
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
)

// String formats the size with a binary prefix.
func (b Bytes) String() string {
	switch {
	case b >= GiB:
		return fmt.Sprintf("%.2fGiB", float64(b)/float64(GiB))
	case b >= MiB:
		return fmt.Sprintf("%.2fMiB", float64(b)/float64(MiB))
	case b >= KiB:
		return fmt.Sprintf("%.2fKiB", float64(b)/float64(KiB))
	default:
		return fmt.Sprintf("%.0fB", float64(b))
	}
}

// BytesPerSecond is a data rate. Network bandwidths in the paper are
// 1 Gbps (AMD) and 100 Mbps (ARM), i.e. 125 MB/s and 12.5 MB/s.
type BytesPerSecond float64

// Mbps constructs a rate from megabits per second, the unit used in
// Table 1 of the paper.
func Mbps(megabits float64) BytesPerSecond { return BytesPerSecond(megabits * 1e6 / 8) }

// TransferTime returns how long moving b bytes takes at rate r.
// It returns +Inf for non-positive rates with positive sizes.
func (r BytesPerSecond) TransferTime(b Bytes) Seconds {
	if r <= 0 {
		if b <= 0 {
			return 0
		}
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(b) / float64(r))
}

// String formats the rate in megabytes per second.
func (r BytesPerSecond) String() string { return fmt.Sprintf("%.1fMB/s", float64(r)/1e6) }

// Cycles counts CPU clock cycles.
type Cycles float64

// At returns the wall-clock time c cycles take at frequency f.
// It returns +Inf for non-positive frequencies with positive cycle counts.
func (c Cycles) At(f Hertz) Seconds {
	if f <= 0 {
		if c <= 0 {
			return 0
		}
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(c) / float64(f))
}
