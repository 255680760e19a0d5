// encode.go is the result path's JSON encoder: JobResponse bodies and
// StreamFrame lines appended straight into a pooled byte buffer, with
// no reflection. Its output is byte-for-byte what encoding/json writes
// for the same values — field order, omitempty rules, sorted map keys,
// string escaping, float formatting and the trailing newline of
// json.Encoder — so clients see no wire change; the golden and fuzz
// tests hold it to that with encoding/json as the oracle.
//
// Non-finite floats, which JSON cannot carry, surface as an error
// wrapping engine.ErrNumerical, so the caller answers 422 instead of
// an empty 200. Every response row repeats the request's drain grid,
// so the encoder keeps the text of the last vds array it formatted and
// copies it when the next one is bit-identical: a Table-I answer
// formats its 61 drain values once instead of once per gate.
package server

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"cntfet/internal/engine"
)

// maxPooledEncoder caps the bytes an encoder may hold when it goes
// back to the pool: one huge sweep's buffer is dropped rather than
// pinned for the life of the process.
const maxPooledEncoder = 1 << 20

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// encoder appends JSON into b. The first non-finite float sets err and
// later output is garbage the caller must not send.
type encoder struct {
	b   []byte
	err error

	keys []string // metrics keys, sorted per map

	// grid holds the values of the last drain grid formatted and
	// gridText its JSON array text; both are owned copies, so a row
	// slice reused by its producer cannot alias them.
	grid     []float64
	gridText []byte
}

// getEncoder takes an empty encoder from the pool.
func getEncoder() *encoder {
	e := encoderPool.Get().(*encoder)
	e.reset()
	return e
}

// putEncoder returns e to the pool unless it has grown past
// maxPooledEncoder.
func putEncoder(e *encoder) {
	if cap(e.b)+cap(e.gridText)+8*cap(e.grid) > maxPooledEncoder {
		return
	}
	encoderPool.Put(e)
}

// reset empties the output and clears the error; the drain-grid memo
// survives, since it only ever matches bit-identical values.
func (e *encoder) reset() {
	e.b = e.b[:0]
	e.err = nil
}

// response appends a JobResponse and the newline json.Encoder ends
// each value with, reporting a non-finite value as an error.
func (e *encoder) response(r *JobResponse) error {
	e.jobResponse(r)
	e.b = append(e.b, '\n')
	return e.err
}

// frame appends one NDJSON stream line.
func (e *encoder) frame(f *StreamFrame) error {
	e.b = append(e.b, '{')
	switch {
	case f.Row != nil:
		e.b = append(e.b, `"row":{"index":`...)
		e.b = strconv.AppendInt(e.b, int64(f.Row.Index), 10)
		if f.Row.Ref {
			e.b = append(e.b, `,"ref":true`...)
		}
		e.b = append(e.b, `,"vg":`...)
		e.float(f.Row.VG)
		e.b = append(e.b, `,"vds":`...)
		e.drainGrid(f.Row.VDS)
		e.b = append(e.b, `,"ids":`...)
		e.floats(f.Row.IDS)
		e.b = append(e.b, '}')
	case f.MC != nil:
		e.b = append(e.b, `"mc":{"done":`...)
		e.b = strconv.AppendInt(e.b, int64(f.MC.Done), 10)
		e.b = append(e.b, `,"total":`...)
		e.b = strconv.AppendInt(e.b, int64(f.MC.Total), 10)
		e.b = append(e.b, `,"mean":`...)
		e.float(f.MC.Mean)
		e.b = append(e.b, `,"std":`...)
		e.float(f.MC.Std)
		e.b = append(e.b, '}')
	case f.Done != nil:
		e.b = append(e.b, `"done":`...)
		e.jobResponse(f.Done)
	case f.Error != nil:
		e.b = append(e.b, `"error":{"error":`...)
		e.str(f.Error.Error)
		e.b = append(e.b, `,"class":`...)
		e.str(f.Error.Class)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, '}', '\n')
	return e.err
}

func (e *encoder) jobResponse(r *JobResponse) {
	e.b = append(e.b, `{"kind":`...)
	e.str(r.Kind)
	e.optFloat(`,"ids":`, r.IDS)
	if op := r.OP; op != nil {
		e.b = append(e.b, `,"op":{"vsc":`...)
		e.float(op.VSC)
		e.b = append(e.b, `,"ids":`...)
		e.float(op.IDS)
		e.b = append(e.b, `,"qs":`...)
		e.float(op.QS)
		e.b = append(e.b, `,"qd":`...)
		e.float(op.QD)
		e.b = append(e.b, '}')
	}
	if len(r.Family) > 0 {
		e.b = append(e.b, `,"family":`...)
		e.curves(r.Family)
	}
	if len(r.RefFamily) > 0 {
		e.b = append(e.b, `,"ref_family":`...)
		e.curves(r.RefFamily)
	}
	if len(r.RMSPercent) > 0 {
		e.b = append(e.b, `,"rms_percent":`...)
		e.floats(r.RMSPercent)
	}
	if mc := r.MC; mc != nil {
		e.b = append(e.b, `,"mc":{"samples":`...)
		e.floats(mc.Samples)
		e.b = append(e.b, `,"mean":`...)
		e.float(mc.Mean)
		e.b = append(e.b, `,"std":`...)
		e.float(mc.Std)
		e.b = append(e.b, `,"p5":`...)
		e.float(mc.P5)
		e.b = append(e.b, `,"p50":`...)
		e.float(mc.P50)
		e.b = append(e.b, `,"p95":`...)
		e.float(mc.P95)
		e.b = append(e.b, '}')
	}
	if len(r.Metrics) > 0 {
		e.b = append(e.b, `,"metrics":`...)
		e.counts(r.Metrics)
	}
	e.b = append(e.b, `,"elapsed_ns":`...)
	e.b = strconv.AppendInt(e.b, r.ElapsedNS, 10)
	e.b = append(e.b, '}')
}

// optFloat appends key and f unless f is zero (an omitempty field).
func (e *encoder) optFloat(key string, f float64) {
	if f != 0 { //lint:allow floatcmp omitempty drops exactly the zero value (and -0), as encoding/json does
		e.b = append(e.b, key...)
		e.float(f)
	}
}

// optInt appends key and n unless n is zero (an omitempty field).
func (e *encoder) optInt(key string, n int64) {
	if n != 0 {
		e.b = append(e.b, key...)
		e.b = strconv.AppendInt(e.b, n, 10)
	}
}

// curves appends a Curve array.
func (e *encoder) curves(cs []Curve) {
	e.b = append(e.b, '[')
	for i := range cs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, `{"vg":`...)
		e.float(cs[i].VG)
		e.b = append(e.b, `,"vds":`...)
		e.drainGrid(cs[i].VDS)
		e.b = append(e.b, `,"ids":`...)
		e.floats(cs[i].IDS)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, ']')
}

// drainGrid appends a row's vds array, reusing the text of the last
// one formatted when the values are bit-identical.
func (e *encoder) drainGrid(vds []float64) {
	if len(vds) > 0 && sameBits(vds, e.grid) {
		e.b = append(e.b, e.gridText...)
		return
	}
	start := len(e.b)
	e.floats(vds)
	if len(vds) > 0 && e.err == nil {
		e.grid = append(e.grid[:0], vds...)
		e.gridText = append(e.gridText[:0], e.b[start:]...)
	}
}

// sameBits reports whether a and b hold bit-identical values (so -0
// and 0 differ, as their JSON text does).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// floats appends a float array; nil is null, as encoding/json has it.
func (e *encoder) floats(fs []float64) {
	if fs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, f := range fs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(f)
	}
	e.b = append(e.b, ']')
}

// counts appends a counter map with its keys sorted.
func (e *encoder) counts(m map[string]int64) {
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys)
	e.b = append(e.b, '{')
	for i, k := range e.keys {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.str(k)
		e.b = append(e.b, ':')
		e.b = strconv.AppendInt(e.b, m[k], 10)
	}
	e.b = append(e.b, '}')
}

// float appends one finite float; a non-finite one sets err.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("server: result holds %v, which JSON cannot carry: %w", f, engine.ErrNumerical)
		}
		return
	}
	e.b = appendJSONFloat(e.b, f)
}

// appendJSONFloat formats a finite float64 as encoding/json does: the
// shortest round-trip decimal, 'f' notation for magnitudes in
// [1e-6, 1e21) and 'e' outside it with the exponent's leading zero
// trimmed (1e-07 → 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) { //lint:allow floatcmp zero prints as 0, not 0e+00
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

// str appends a JSON string escaped as encoding/json escapes it
// (HTML-safe: <, > and & become \u003c, \u003e, \u0026; invalid UTF-8
// becomes \ufffd; U+2028 and U+2029 are escaped).
func (e *encoder) str(s string) {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
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
	e.b = append(b, '"')
}
