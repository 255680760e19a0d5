package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cntfet/internal/telemetry"
	"cntfet/internal/units"
)

// table1Body is the Table-I family request (7 gates 0.3–0.6 V × 61
// drains 0–0.6 V) on the given model family, buffered.
func table1Body(tb testing.TB, family string) string {
	tb.Helper()
	body, err := json.Marshal(JobRequest{
		Kind:   "family-sweep",
		Model:  &ModelSpec{Family: family},
		Gates:  units.Linspace(0.3, 0.6, 7),
		Drains: units.Linspace(0, 0.6, 61),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return string(body)
}

// BenchmarkHandlerTable1 times one buffered Table-I request through
// the full handler (middleware, decode, coalesce, resolve on a warm
// cache, engine run, encode, write) into an httptest recorder — the
// in-process serve path without the socket. Telemetry is on, as
// cntserve runs it.
//
//	go test -run '^$' -bench=HandlerTable1 -benchmem ./internal/server/
func BenchmarkHandlerTable1(b *testing.B) {
	telemetry.Enable()
	defer telemetry.Disable()
	for _, family := range []string{FamilyModel1, FamilyReference} {
		b.Run(family, func(b *testing.B) {
			h := New(Config{}).Handler()
			body := table1Body(b, family)
			serve := func() {
				req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body)
				}
			}
			serve() // build the model outside the timed loop
			b.ReportAllocs()
			for b.Loop() {
				serve()
			}
		})
	}
}
