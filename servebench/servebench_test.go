package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"cntfet/internal/server"
	"cntfet/internal/telemetry"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: bad name or unit", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload %q: bad name", w.name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's
// metric and workload tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newGenerator(w, 7), newGenerator(w, 7), newGenerator(w, 8)
		differs := false
		keys := map[string]bool{}
		for i := 0; i < 50; i++ {
			ja, jb, jc := a.next(), b.next(), c.next()
			if !bytes.Equal(ja.body, jb.body) {
				t.Fatalf("%s job %d: same seed, different bodies", w.name, i)
			}
			differs = differs || !bytes.Equal(ja.body, jc.body)
			if ja.points != len(w.gates)*len(w.drains) {
				t.Fatalf("%s job %d: %d points", w.name, i, ja.points)
			}
			keys[server.RouteKey(ja.req)] = true
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", w.name)
		}
		if w.freshKeys && len(keys) != 50 {
			t.Errorf("%s: %d distinct keys in 50 jobs", w.name, len(keys))
		}
		if !w.freshKeys && len(keys) != 1 {
			t.Errorf("%s: %d keys, want the one warm key", w.name, len(keys))
		}
	}
}

// servedBody fetches one real answer for j from a one-replica fleet.
func servedBody(t *testing.T, j job) []byte {
	t.Helper()
	ctx := context.Background()
	f, err := startFleet(ctx, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	c := newClient()
	defer c.close()
	var buf []byte
	if s := c.post(ctx, f.target(), j.body, &buf); s.err != nil {
		t.Fatal(s.err)
	}
	return buf
}

func TestGateTripsOnTamperedBody(t *testing.T) {
	v := newVerifier()
	check := func(j job, body []byte) error {
		g := &gate{}
		g.check(context.Background(), v, j, sample{}, body)
		if len(g.errs) > 0 {
			return errors.New(g.errs[0])
		}
		return nil
	}
	for _, stream := range []bool{false, true} {
		j := newJob(server.ModelSpec{}, table1Gates, table1Drains, stream)
		body := servedBody(t, j)
		if err := check(j, body); err != nil {
			t.Fatalf("stream=%v: untouched body fails the gate: %v", stream, err)
		}
		// Change the last digit of the first current of the last row.
		at := bytes.LastIndex(body, []byte(`"ids":[`)) + len(`"ids":[`)
		end := at + bytes.IndexAny(body[at:], ",]")
		digit := bytes.LastIndexAny(body[at:end], "0123456789") + at
		tampered := append([]byte(nil), body...)
		tampered[digit] = '0' + (tampered[digit]-'0'+1)%10
		if err := check(j, tampered); err == nil {
			t.Errorf("stream=%v: gate passed a tampered current", stream)
		}
		if err := check(j, body[:len(body)/2]); err == nil {
			t.Errorf("stream=%v: gate passed a truncated body", stream)
		}
	}
	// A body answering a different grid fails the row count.
	j := newJob(server.ModelSpec{}, table1Gates[:3], table1Drains, false)
	if err := check(newJob(server.ModelSpec{}, table1Gates, table1Drains, false), servedBody(t, j)); err == nil {
		t.Error("gate passed an answer with too few rows")
	}
}

func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("serves every workload")
	}
	telemetry.Enable()
	for _, w := range workloads {
		g := &gate{}
		values, err := runEndToEnd(context.Background(), w, 3, 0.2, g)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !g.correct() {
			t.Fatalf("%s: gate failed: %v", w.name, g.errs)
		}
		for _, d := range endToEnd {
			v, ok := values[d.name]
			if !ok || math.IsNaN(v) || v <= 0 {
				t.Errorf("%s: %s = %v (present %v), want a positive value", w.name, d.name, v, ok)
			}
		}
		if len(values) != len(endToEnd) {
			t.Errorf("%s: %d values for %d metrics", w.name, len(values), len(endToEnd))
		}
	}
}

func TestTracedSpansFormTree(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a traced run")
	}
	telemetry.Enable()
	w, _ := workloadByName("table1-warm")
	path := filepath.Join(t.TempDir(), "spans.ndjson")
	g := &gate{}
	values, err := runTraced(context.Background(), w, 5, 2, g, path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.correct() {
		t.Fatalf("gate failed: %v", g.errs)
	}
	for _, d := range perLayer {
		if _, ok := values[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	if values["cluster.builds_per_key"] != 1 {
		t.Errorf("builds per key %v, want 1", values["cluster.builds_per_key"])
	}

	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var spans []span
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if len(spans) < minInputs*len(spanParent) {
		t.Fatalf("%d spans written", len(spans))
	}
	if err := checkTree(spans); err != nil {
		t.Fatal(err)
	}
	med := spanMedians(spans)
	for name := range spanParent {
		self := med[name] - med[chainInner[name]]
		if self < 0 {
			t.Errorf("%s: negative self time %.1f us", name, self)
		}
	}
	if self := med[spanRoute] - med[spanSocket]; self < 0 {
		t.Errorf("%s: negative self time %.1f us", spanRoute, self)
	}
}

func TestCheckTreeRejectsBrokenTrees(t *testing.T) {
	ok := []span{{Trace: "a", ID: "1", Name: spanRoute}, {Trace: "a", ID: "2", Parent: "1", Name: spanSocket}}
	if err := checkTree(ok); err != nil {
		t.Fatal(err)
	}
	orphan := append(ok[:1:1], span{Trace: "a", ID: "2", Parent: "9", Name: spanSocket})
	if checkTree(orphan) == nil {
		t.Error("orphan span accepted")
	}
	twoRoots := append(ok[:1:1], span{Trace: "a", ID: "2", Name: spanSocket})
	if checkTree(twoRoots) == nil {
		t.Error("two roots accepted")
	}
	crossTrace := append(ok[:1:1], span{Trace: "b", ID: "2", Parent: "1", Name: spanSocket})
	if checkTree(crossTrace) == nil {
		t.Error("parent in another trace accepted")
	}
	cycle := append(ok[:2:2], span{Trace: "a", ID: "3", Parent: "4"}, span{Trace: "a", ID: "4", Parent: "3"})
	if checkTree(cycle) == nil {
		t.Error("parent cycle accepted")
	}
}
