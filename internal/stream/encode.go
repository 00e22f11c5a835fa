// Package stream is the daemon's streaming wire layer: a single-pass
// JSON row encoder and a pooled, flush-on-boundary record writer for
// NDJSON and SSE enumeration streams.
//
// The encoder exists because encoding/json on the hot row path costs a
// reflection walk and an intermediate buffer per point; AppendFloat/
// AppendString/Append*Summary build the exact bytes json.Marshal would
// produce (property-tested byte-for-byte, including float formatting,
// HTML-escaped strings and omitempty semantics) by appending into a
// caller-owned buffer. That buffer is the writer's pooled chunk buffer,
// so a streamed row never exists anywhere except the chunk it ships in.
package stream

import (
	"math"
	"strconv"
	"unicode/utf8"

	"heteromix/internal/cluster"
)

const hexDigits = "0123456789abcdef"

// AppendFloat appends f exactly as encoding/json renders a float64:
// shortest round-trip form, fixed notation except for magnitudes below
// 1e-6 or at/above 1e21, which use exponent notation with a cleaned
// exponent (e-09 -> e-9). Non-finite values — which json.Marshal
// refuses and the model never produces — append 0 so a stream can
// never be made unparseable.
func AppendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, '0')
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendString appends s as a JSON string exactly as encoding/json
// does with its default HTML escaping: control bytes, quotes and
// backslashes escaped, <, > and & as </>/&, invalid
// UTF-8 as the \ufffd escape, and U+2028/U+2029 escaped for JS embedding.
func AppendString(b []byte, s string) []byte {
	return append(appendEscaped(append(b, '"'), s), '"')
}

// appendEscaped appends the inside of AppendString's quotes. Escaping
// is per character, so escaping the parts of a string that are joined by
// ASCII text escapes the whole string.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == ' ' || r == ' ' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(b, s[start:]...)
}

// AppendGenericPointSummary appends p's JSON object byte-identically to
// json.Marshal — field order, nil-vs-empty Groups and all.
func AppendGenericPointSummary(b []byte, p *cluster.GenericPointSummary) []byte {
	b = append(b, `{"groups":`...)
	if p.Groups == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.Groups {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"type":`...)
			b = AppendString(b, p.Groups[i].Type)
			b = appendGroupFields(b, &p.Groups[i])
		}
		b = append(b, ']')
	}
	b = append(b, `,"time_seconds":`...)
	b = AppendFloat(b, p.TimeSeconds)
	b = append(b, `,"energy_joules":`...)
	b = AppendFloat(b, p.EnergyJoules)
	b = append(b, `,"label":`...)
	b = AppendString(b, p.Label)
	return append(b, '}')
}

// appendGroupFields appends the fields of a summary group after its
// type, closing the group's object.
func appendGroupFields(b []byte, g *cluster.GenericGroupSummary) []byte {
	b = append(b, `,"nodes":`...)
	b = strconv.AppendInt(b, int64(g.Nodes), 10)
	b = append(b, `,"cores":`...)
	b = strconv.AppendInt(b, int64(g.Cores), 10)
	b = append(b, `,"ghz":`...)
	b = AppendFloat(b, g.GHz)
	b = append(b, `,"work_fraction":`...)
	b = AppendFloat(b, g.WorkFraction)
	return append(b, '}')
}

// AppendGenericPoint appends the JSON object of p.Summary(names)
// straight from the point, byte-identically to json.Marshal of the
// summary, without building it: no groups slice and no label string.
// The groups and the label come from the point's own append forms, with
// the type names escaped as they are written.
func AppendGenericPoint(b []byte, p *cluster.GenericPoint, names []string) []byte {
	b = append(b, `{"groups":`...)
	open := false
	p.EachGroup(func(i int, g cluster.GenericGroupSummary) {
		if open {
			b = append(b, ',')
		} else {
			b = append(b, '[')
			open = true
		}
		b = append(b, `{"type":"`...)
		b = append(cluster.AppendTypeName(b, names, i, appendEscaped), '"')
		b = appendGroupFields(b, &g)
	})
	if open {
		b = append(b, ']')
	} else {
		b = append(b, "null"...)
	}
	b = append(b, `,"time_seconds":`...)
	b = AppendFloat(b, float64(p.Time))
	b = append(b, `,"energy_joules":`...)
	b = AppendFloat(b, float64(p.Energy))
	b = append(b, `,"label":"`...)
	b = p.AppendLabel(b, names, appendEscaped)
	return append(b, `"}`...)
}

// AppendPointSummary appends p's JSON object byte-identically to
// json.Marshal, including the omitempty cores/ghz fields of an unused
// side.
func AppendPointSummary(b []byte, p *cluster.PointSummary) []byte {
	b = appendSide(append(b, '{'), "arm", p.ARMNodes, p.ARMCores, p.ARMGHz)
	b = appendSide(append(b, ','), "amd", p.AMDNodes, p.AMDCores, p.AMDGHz)
	b = appendPointTail(b, p.TimeSeconds, p.EnergyJoules, p.WorkARMFraction)
	b = append(b, `,"label":`...)
	b = AppendString(b, p.Label)
	return append(b, '}')
}

// AppendPoint appends the JSON object of p.Summary() straight from the
// point, byte-identically to json.Marshal of the summary, without
// building it: the label is written by Configuration.AppendLabel, whose
// text needs no escaping.
func AppendPoint(b []byte, p *cluster.Point) []byte {
	b = appendType(append(b, '{'), "arm", p.Config.ARM)
	b = appendType(append(b, ','), "amd", p.Config.AMD)
	b = appendPointTail(b, float64(p.Time), float64(p.Energy), p.WorkARM)
	b = append(b, `,"label":"`...)
	b = p.Config.AppendLabel(b)
	return append(b, `"}`...)
}

// appendType appends one side of a two-type point as Point.Summary
// flattens it: a side with no nodes has no cores or GHz.
func appendType(b []byte, side string, tc cluster.TypeConfig) []byte {
	if tc.Nodes == 0 {
		return appendSide(b, side, 0, 0, 0)
	}
	return appendSide(b, side, tc.Nodes, tc.Config.Cores, tc.Config.Frequency.GHzValue())
}

// appendSide appends one side's fields, "arm" or "amd": its node count
// and its omitempty cores and GHz.
func appendSide(b []byte, side string, nodes, cores int, ghz float64) []byte {
	b = append(append(append(b, '"'), side...), `_nodes":`...)
	b = strconv.AppendInt(b, int64(nodes), 10)
	if cores != 0 {
		b = append(append(append(b, `,"`...), side...), `_cores":`...)
		b = strconv.AppendInt(b, int64(cores), 10)
	}
	if ghz != 0 {
		b = append(append(append(b, `,"`...), side...), `_ghz":`...)
		b = AppendFloat(b, ghz)
	}
	return b
}

// appendPointTail appends a two-type row's time, energy and split.
func appendPointTail(b []byte, time, energy, workARM float64) []byte {
	b = append(b, `,"time_seconds":`...)
	b = AppendFloat(b, time)
	b = append(b, `,"energy_joules":`...)
	b = AppendFloat(b, energy)
	b = append(b, `,"work_arm_fraction":`...)
	return AppendFloat(b, workARM)
}
