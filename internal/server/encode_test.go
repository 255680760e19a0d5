package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cntfet/internal/engine"
	"cntfet/internal/units"
)

// edgeFloats are the values where encoding/json's float formatting
// changes shape: signed zero, the smallest subnormal, both sides of
// the 1e-6 and 1e21 notation switches, the largest finite value, and
// exponents whose leading zero is trimmed (e-07 → e-7).
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	1e-7, 2.5e-9, -3e-8, 1e-10, 1.5e-300, 1e22, 1e100,
	0.1, 0.3, 1.0 / 3, 123.456, -42, 1, 6e-5, 2.9e-6,
}

// oracle is what encoding/json writes for v through json.Encoder,
// trailing newline included — the bytes the server sent before the
// append encoder existed.
func oracle(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	return buf.Bytes()
}

// grid returns a fresh copy of the values, as each response row holds
// its own drain-grid slice.
func grid(vs ...float64) []float64 { return append([]float64(nil), vs...) }

// goldenResponses covers every wire kind plus the omitempty edges.
func goldenResponses() map[string]JobResponse {
	drains := units.Linspace(0, 0.6, 7)
	other := units.Linspace(0, 0.5, 7)
	return map[string]JobResponse{
		"minimal": {Kind: "family-sweep"},
		"iv-point": {
			Kind: "iv-point", IDS: 1.234e-5,
			OP:        &OperatingPoint{VSC: -0.231, IDS: 1.234e-5, QS: -1.6e-10, QD: math.Copysign(0, -1)},
			Metrics:   map[string]int64{"sweep.points": 1, "fettoy.solves": 3, "a.b": -7},
			ElapsedNS: 12345,
		},
		"negative-zero ids omitted": {Kind: "iv-point", IDS: math.Copysign(0, -1)},
		"family-sweep": {
			Kind: "family-sweep",
			Family: []Curve{
				{VG: 0.3, VDS: grid(drains...), IDS: grid(edgeFloats[:7]...)},
				{VG: 0.4, VDS: grid(drains...), IDS: grid(edgeFloats[7:14]...)},
				{VG: 0.5, VDS: grid(other...), IDS: grid(edgeFloats[14:21]...)},
				{VG: 0.6, VDS: grid(drains...), IDS: grid(edgeFloats[21:28]...)},
				{VG: 0.7, VDS: nil, IDS: []float64{}},
				{VG: 0.8, VDS: []float64{}, IDS: nil},
				{VG: 0.9, VDS: grid(edgeFloats...), IDS: grid(edgeFloats...)},
				{VG: 1.0, VDS: grid(drains[:6]...), IDS: grid(drains[:6]...)},
			},
			Metrics:   map[string]int64{"zz": 1, "sweep.points": 427, "core.dispatch.cardano": 12},
			ElapsedNS: 1,
		},
		"signed-zero grid is a different grid": {
			Kind: "family-sweep",
			Family: []Curve{
				{VG: 0.3, VDS: grid(0, 0.1), IDS: grid(1, 2)},
				{VG: 0.4, VDS: grid(math.Copysign(0, -1), 0.1), IDS: grid(1, 2)},
			},
		},
		"rms-compare": {
			Kind:       "rms-compare",
			Family:     []Curve{{VG: 0.5, VDS: grid(drains...), IDS: grid(drains...)}},
			RefFamily:  []Curve{{VG: 0.5, VDS: grid(drains...), IDS: grid(other...)}},
			RMSPercent: []float64{6.85, 0},
			ElapsedNS:  -1,
		},
		"empty slices omitted": {Kind: "rms-compare", Family: []Curve{}, RefFamily: []Curve{}, RMSPercent: []float64{}, Metrics: map[string]int64{}},
		"monte-carlo": {
			Kind: "monte-carlo",
			MC:   &MCResult{Samples: grid(edgeFloats...), Mean: 1e-5, Std: 2e-7, P5: 9e-6, P50: 1e-5, P95: 1.1e-5},
		},
		"monte-carlo summary": {Kind: "monte-carlo", MC: &MCResult{Mean: 1, Std: 0}},
	}
}

// TestEncoderMatchesEncodingJSON is the byte-identity contract: for
// every wire kind and every StreamFrame variant, the append encoder
// writes exactly what json.Encoder writes.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	e := getEncoder()
	defer putEncoder(e)
	for name, r := range goldenResponses() {
		// Twice: the second pass starts with the first's drain-grid memo.
		for pass := 0; pass < 2; pass++ {
			e.reset()
			if err := e.response(&r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := oracle(t, r); !bytes.Equal(e.b, want) {
				t.Errorf("%s (pass %d):\n got %s\nwant %s", name, pass, e.b, want)
			}
		}
	}

	done := goldenResponses()["iv-point"]
	frames := map[string]StreamFrame{
		"row":     {Row: &StreamRow{Index: 3, VG: 0.5, VDS: grid(edgeFloats...), IDS: grid(edgeFloats...)}},
		"ref row": {Row: &StreamRow{Index: 0, Ref: true, VG: 1e-7, VDS: grid(0, 0.3), IDS: nil}},
		"mc":      {MC: &StreamMC{Done: 64, Total: 1000, Mean: 1.5e-5, Std: math.Copysign(0, -1)}},
		"done":    {Done: &done},
		"error": {Error: &ErrorResponse{
			Error: "bad \"quote\" \\ <tag> & \n\t\r\b\f \x01 \x7f é \u2028 \u2029 \xff end",
			Class: "numerical",
		}},
		"empty": {},
	}
	for name, f := range frames {
		e.reset()
		if err := e.frame(&f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := oracle(t, f); !bytes.Equal(e.b, want) {
			t.Errorf("frame %s:\n got %s\nwant %s", name, e.b, want)
		}
	}
}

// TestServedBodiesMatchEncodingJSON checks the same identity on real
// answers: every buffered body and streamed frame the handler writes
// re-encodes through encoding/json to the same bytes, and buffered
// bodies carry a matching Content-Length.
func TestServedBodiesMatchEncodingJSON(t *testing.T) {
	h := New(Config{}).Handler()
	bodies := []string{
		`{"kind":"iv-point","model":{"family":"model2"},"vg":0.5,"vd":0.4}`,
		`{"kind":"family-sweep","model":{},"gates":[0.3,0.6],"drains":[0,1e-7,0.3,0.6]}`,
		`{"kind":"rms-compare","model":{"family":"model2"},"ref":{},"gates":[0.4],"drains":[0,0.3,0.6]}`,
		`{"kind":"monte-carlo","model":{},"vg":0.5,"vd":0.4,"ef_sigma":0.02,"samples":20,"seed":3}`,
	}
	for _, body := range bodies {
		w := post(t, h, body)
		var jr JobResponse
		if err := json.Unmarshal(w.Body.Bytes(), &jr); err != nil || w.Code != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", body, w.Code, err, w.Body)
		}
		if want := oracle(t, jr); !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("%s:\n got %s\nwant %s", body, w.Body, want)
		}
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", body, cl, w.Body.Len())
		}

		if strings.Contains(body, "iv-point") {
			continue // nothing streams for a single point
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
		req.Header.Set("Accept", "application/x-ndjson")
		sw := httptest.NewRecorder()
		h.ServeHTTP(sw, req)
		for _, line := range strings.SplitAfter(sw.Body.String(), "\n") {
			if line == "" {
				continue
			}
			var f StreamFrame
			if err := json.Unmarshal([]byte(line), &f); err != nil || (f.Row == nil && f.MC == nil && f.Done == nil) {
				t.Fatalf("%s: bad frame %q: %v", body, line, err)
			}
			if want := oracle(t, f); line != string(want) {
				t.Errorf("%s frame:\n got %s\nwant %s", body, line, want)
			}
		}
	}
}

// TestEncoderReportsNonFinite checks that a value JSON cannot carry
// fails the encode with an error the server maps to 422 numerical,
// wherever in the response it sits.
func TestEncoderReportsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases := map[string]JobResponse{
			"ids":         {Kind: "iv-point", IDS: bad},
			"op":          {Kind: "iv-point", OP: &OperatingPoint{QD: bad}},
			"family ids":  {Kind: "family-sweep", Family: []Curve{{VG: 0.5, VDS: grid(0, 0.1), IDS: grid(1, bad)}}},
			"family vds":  {Kind: "family-sweep", Family: []Curve{{VG: 0.5, VDS: grid(bad, 0.1), IDS: grid(1, 2)}}},
			"rms_percent": {Kind: "rms-compare", RMSPercent: []float64{1, bad}},
			"mc":          {Kind: "monte-carlo", MC: &MCResult{Std: bad}},
		}
		// One encoder throughout, each case twice: a rejected drain grid
		// must not be remembered and then copied without its error.
		e := getEncoder()
		for name, r := range cases {
			for pass := 0; pass < 2; pass++ {
				e.reset()
				err := e.response(&r)
				if !errors.Is(err, engine.ErrNumerical) {
					t.Errorf("%s = %v (pass %d): err %v, want ErrNumerical", name, bad, pass, err)
					continue
				}
				if status, class := statusOf(err); status != http.StatusUnprocessableEntity || class != "numerical" {
					t.Errorf("%s: maps to %d %s", name, status, class)
				}
			}
		}
		e.reset()
		if err := e.frame(&StreamFrame{MC: &StreamMC{Mean: bad}}); !errors.Is(err, engine.ErrNumerical) {
			t.Errorf("mc frame %v: err %v", bad, err)
		}
		putEncoder(e)
	}
}

// FuzzAppendJSONFloat checks the float formatter against
// encoding/json on arbitrary finite bit patterns. The seed corpus (the
// edge values above) runs under plain go test; explore with
//
//	go test -run '^$' -fuzz FuzzAppendJSONFloat ./internal/server/
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range edgeFloats {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip("JSON has no non-finite numbers")
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("%#x: got %s, want %s", bits, got, want)
		}
	})
}

// TestEncodeTable1ZeroAlloc guards the steady state: once an encoder
// has served a Table-I answer, encoding the next one into it
// allocates nothing.
func TestEncodeTable1ZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	gates := units.Linspace(0.3, 0.6, 7)
	drains := units.Linspace(0, 0.6, 61)
	r := JobResponse{
		Kind:      "family-sweep",
		Metrics:   map[string]int64{"sweep.points": 427, "fettoy.solves": 427, "core.dispatch.cardano": 300, "engine.jobs": 1},
		ElapsedNS: 151000,
	}
	for _, vg := range gates {
		ids := make([]float64, len(drains))
		for i, vd := range drains {
			ids[i] = 1e-6 * vg * math.Tanh(vd/0.05)
		}
		r.Family = append(r.Family, Curve{VG: vg, VDS: grid(drains...), IDS: ids})
	}
	e := getEncoder()
	defer putEncoder(e)
	if err := e.response(&r); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		e.reset()
		if err := e.response(&r); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("encoding a Table-I response allocates %.1f objects", avg)
	}
}

// TestOversizedEncoderNotPooled checks the pool cap: an encoder that
// grew past maxPooledEncoder is dropped, not kept for the next request.
func TestOversizedEncoderNotPooled(t *testing.T) {
	e := getEncoder()
	e.b = make([]byte, 0, maxPooledEncoder+1)
	putEncoder(e)
	if got := getEncoder(); got == e {
		t.Fatal("an encoder over the pool cap came back from the pool")
	}
}
