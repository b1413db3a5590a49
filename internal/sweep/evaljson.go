package sweep

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// appendEvalResponse appends the response exactly as an indenting
// json.Encoder (prefix "", indent two spaces, HTML escaping on) writes it,
// trailing newline included, without reflection or a second indenting
// pass. It reports false, leaving b's contents unspecified, if the
// response holds a NaN or an infinity: encoding/json rejects those with
// its own error. The field order, names and omitempty choices mirror the
// struct tags of EvalResponse and LayerOutcome; a test fills every field
// of both and compares against encoding/json.
func appendEvalResponse(b []byte, r *EvalResponse) ([]byte, bool) {
	o := jsonObject{b: b, indent: "\n  "}
	o.b = append(o.b, '{')
	o.str("arch", r.Arch)
	o.str("network", r.Network)
	o.float("area_um2", r.AreaUM2)
	o.int("peak_macs_per_cycle", r.PeakMACsPerCycle)
	o.key("layers")
	switch {
	case r.Layers == nil:
		o.b = append(o.b, "null"...)
	case len(r.Layers) == 0:
		o.b = append(o.b, "[]"...)
	default:
		o.b = append(o.b, '[')
		for i := range r.Layers {
			if i > 0 {
				o.b = append(o.b, ',')
			}
			o.b = append(o.b, "\n    "...)
			l := jsonObject{b: o.b, indent: "\n      "}
			l.b = append(l.b, '{')
			l.layer(&r.Layers[i])
			l.b = append(l.b, "\n    }"...)
			o.b, o.bad = l.b, o.bad || l.bad
		}
		o.b = append(o.b, "\n  ]"...)
	}
	o.int("macs", r.MACs)
	o.float("cycles", r.Cycles)
	o.float("total_pj", r.TotalPJ)
	o.float("pj_per_mac", r.PJPerMAC)
	o.float("macs_per_cycle", r.MACsPerCycle)
	o.float("utilization", r.Utilization)
	o.int("evaluations", int64(r.Evaluations))
	o.floatOmit("effective_bits", r.EffectiveBits)
	o.floatOmit("snr_db", r.SNRDB)
	o.floatOmit("accuracy_loss_pct", r.AccuracyLossPct)
	o.intOmit("pruned", r.Pruned)
	o.intOmit("delta_evals", r.DeltaEvals)
	o.intOmit("full_evals", r.FullEvals)
	o.b = append(o.b, "\n}\n"...)
	return o.b, !o.bad
}

// layer appends a LayerOutcome's fields.
func (o *jsonObject) layer(l *LayerOutcome) {
	o.str("layer", l.Layer)
	o.int("macs", l.MACs)
	o.float("total_pj", l.TotalPJ)
	o.float("pj_per_mac", l.PJPerMAC)
	o.float("cycles", l.Cycles)
	o.float("macs_per_cycle", l.MACsPerCycle)
	o.float("utilization", l.Utilization)
	o.int("evaluations", int64(l.Evaluations))
	o.floatOmit("effective_bits", l.EffectiveBits)
	o.floatOmit("snr_db", l.SNRDB)
	o.floatOmit("accuracy_loss_pct", l.AccuracyLossPct)
	o.intOmit("pruned", l.Pruned)
	o.intOmit("delta_evals", l.DeltaEvals)
	o.intOmit("full_evals", l.FullEvals)
}

// jsonObject appends the fields of one indented JSON object after its
// opening brace; the caller writes the braces.
type jsonObject struct {
	b []byte
	// indent is the newline and indentation in front of each field.
	indent string
	fields int
	// bad records a non-finite float.
	bad bool
}

func (o *jsonObject) key(name string) {
	if o.fields > 0 {
		o.b = append(o.b, ',')
	}
	o.fields++
	o.b = append(o.b, o.indent...)
	o.b = append(o.b, '"')
	o.b = append(o.b, name...)
	o.b = append(o.b, `": `...)
}

func (o *jsonObject) str(name, v string) {
	o.key(name)
	o.b = appendJSONString(o.b, v)
}

func (o *jsonObject) int(name string, v int64) {
	o.key(name)
	o.b = strconv.AppendInt(o.b, v, 10)
}

func (o *jsonObject) intOmit(name string, v int) {
	if v != 0 {
		o.int(name, int64(v))
	}
}

func (o *jsonObject) float(name string, v float64) {
	o.key(name)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		o.bad = true
		return
	}
	o.b = appendJSONFloat(o.b, v)
}

// floatOmit is float under omitempty: zero (of either sign) is omitted.
func (o *jsonObject) floatOmit(name string, v float64) {
	if v != 0 {
		o.float(name, v)
	}
}

// appendJSONFloat formats a finite float64 as encoding/json does: like
// strconv's shortest 'f' form, switching to 'e' below 1e-6 and from 1e21,
// with a one-digit negative exponent unpadded (e-07 becomes e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
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

// appendJSONString quotes s as encoding/json does with HTML escaping on:
// '"' and '\\' backslash-escaped, \b \f \n \r \t by name, other control
// bytes and <, >, & as \u00XX, U+2028 and U+2029 as \u202X, and each
// invalid UTF-8 byte as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
