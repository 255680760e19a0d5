package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names, one per layer call the traced run makes. The chain
// route → socket → handler → engine → kernel nests each layer in the
// next outer one; resolve, snapshot and first_row are single calls
// hung under the layer that makes them.
const (
	spanRoute    = "cluster.route"
	spanSocket   = "server.socket"
	spanHandler  = "server.handler"
	spanResolve  = "server.resolve"
	spanEngine   = "engine.run"
	spanSnapshot = "telemetry.snapshot"
	spanFirstRow = "sweep.first_row"
	spanKernel   = "device.kernel"
)

// spanParent is the next outer layer of each span.
var spanParent = map[string]string{
	spanSocket:   spanRoute,
	spanHandler:  spanSocket,
	spanResolve:  spanHandler,
	spanEngine:   spanHandler,
	spanSnapshot: spanEngine,
	spanFirstRow: spanEngine,
	spanKernel:   spanEngine,
}

// chainInner is the inner layer each chain span's self time excludes.
var chainInner = map[string]string{
	spanRoute:   spanSocket,
	spanSocket:  spanHandler,
	spanHandler: spanEngine,
	spanEngine:  spanKernel,
}

// span is one recorded layer call. Spans of one input share Trace.
type span struct {
	Trace   string `json:"trace"`
	ID      string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0     time.Time
	inputs int
	spans  []span
}

// input starts a new traced input and returns its trace ID.
func (r *recorder) input() string {
	r.inputs++
	return fmt.Sprintf("%016x", r.inputs)
}

// record appends one span of trace. A span's ID is its trace and
// layer name, so its parent's ID follows from spanParent.
func (r *recorder) record(trace, name string, start time.Time, d time.Duration) {
	parent := ""
	if p, ok := spanParent[name]; ok {
		parent = trace + "/" + p
	}
	r.spans = append(r.spans, span{
		Trace:   trace,
		ID:      trace + "/" + name,
		Parent:  parent,
		Name:    name,
		StartNS: start.Sub(r.t0).Nanoseconds(),
		DurNS:   d.Nanoseconds(),
	})
}

// spanMedians is each span name's median duration in microseconds.
// A chain span's self time is its median minus its inner layer's
// (chainInner); the others are leaves.
func spanMedians(spans []span) map[string]float64 {
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.DurNS)/1e3)
	}
	out := map[string]float64{"": 0}
	for name, ds := range byName {
		out[name] = median(ds)
	}
	return out
}

// checkTree verifies that each trace's spans form one tree: a single
// root, and every span's chain of parents in the same trace reaching
// it.
func checkTree(spans []span) error {
	byTrace := map[string]map[string]span{}
	for _, s := range spans {
		if byTrace[s.Trace] == nil {
			byTrace[s.Trace] = map[string]span{}
		}
		if _, dup := byTrace[s.Trace][s.ID]; dup {
			return fmt.Errorf("trace %s: duplicate span %s", s.Trace, s.ID)
		}
		byTrace[s.Trace][s.ID] = s
	}
	for trace, set := range byTrace {
		roots := 0
		for _, s := range set {
			if s.Parent == "" {
				roots++
				continue
			}
			p := s
			for hops := 0; p.Parent != ""; hops++ {
				next, ok := set[p.Parent]
				if !ok {
					return fmt.Errorf("trace %s: span %s (%s) has no parent %s", trace, p.ID, p.Name, p.Parent)
				}
				if hops == len(set) {
					return fmt.Errorf("trace %s: span %s is on a parent cycle", trace, s.ID)
				}
				p = next
			}
		}
		if roots != 1 {
			return fmt.Errorf("trace %s: %d roots", trace, roots)
		}
	}
	return nil
}

// runTraced is the separate traced pass that produces the per-layer
// ledger: a closed-loop client phase without spans for client and
// runtime diagnostics, a layer phase that calls every layer on the
// same inputs and records a span per call, and single-layer probes.
// It always serves from two replicas behind a router so the relay can
// be measured; unrouted workloads send straight to their key's home.
func runTraced(ctx context.Context, w workload, seed int64, seconds float64, g *gate, spansPath string) (map[string]float64, error) {
	gen := newGenerator(w, seed)
	v := newVerifier()
	c := newClient()
	defer c.close()
	f, err := startFleet(ctx, 2, true)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	keys := keySet{}
	next := keys.wrap(gen.next)
	var buf []byte

	// The first job goes through the router, naming the key's home.
	first := next()
	s := c.post(ctx, f.routerBase, first.body, &buf)
	g.check(ctx, v, first, s, buf)
	target, home := f.routerBase, (*replica)(nil)
	if !w.routed {
		if home = f.replicaAt(s.replica); home == nil {
			return nil, fmt.Errorf("routed answer names unknown replica %q (%v)", s.replica, s.err)
		}
		target = home.base
	}
	for i := 0; i < w.warmup; i++ {
		j := next()
		s := c.post(ctx, target, j.body, &buf)
		g.check(ctx, v, j, s, buf)
	}

	phase := time.Duration(seconds * 0.4 * float64(time.Second))
	var sent []job
	clientNext := next
	if w.freshKeys {
		clientNext = func() job { j := next(); sent = append(sent, j); return j }
	}
	st, err := closedLoop(ctx, c, target, w, clientNext, v, g, time.Now().Add(phase), nil)
	if err != nil {
		return nil, err
	}
	if st.ok == 0 {
		return nil, fmt.Errorf("no job succeeded")
	}
	lat := durations(st.lat, ms)
	p99 := quantile(lat, 0.99)
	m := map[string]float64{
		"client.latency_p99_ms":      p99,
		"client.tail_samples":        float64(above(lat, p99)),
		"client.jobs_per_s":          float64(st.ok) / st.busy.Seconds(),
		"client.sent":                float64(st.sent),
		"client.ok":                  float64(st.ok),
		"client.failed":              float64(st.sent - st.ok),
		"server.cache_hit_ratio":     float64(st.hits) / float64(max(st.hits+st.misses, 1)),
		"runtime.gc_cycles_per_kjob": 1000 * float64(st.rt.gcCycles) / float64(st.sent),
		"runtime.gc_cpu_pct":         100 * st.rt.gcCPU / st.rt.totalCPU,
		"runtime.allocs_per_job":     float64(st.rt.allocObjects) / float64(st.sent),
	}

	// Fresh-key workloads feed the layer phase the first half of the
	// client phase's keys, now warm on their homes, so the chain measures
	// relays, not builds; the other half is re-posted once without spans
	// and is the untraced comparison for trace.overhead_pct. None of
	// these re-posts may build.
	inputs := func() (job, bool) { return next(), true }
	untraced, reposted := median(lat), 0
	if w.freshKeys {
		inputs = func() (job, bool) {
			if reposted >= len(sent)/2 {
				return job{}, false
			}
			reposted++
			return sent[reposted-1], true
		}
	}
	rec := &recorder{t0: time.Now()}
	lm, err := layerPhase(ctx, c, f, w, home, inputs, v, g, rec, time.Now().Add(phase))
	if err != nil {
		return nil, err
	}
	for k, x := range lm {
		m[k] = x
	}
	if w.freshKeys {
		var warm []float64
		for _, j := range sent[reposted:] {
			s := c.post(ctx, f.routerBase, j.body, &buf)
			g.check(ctx, v, j, s, buf)
			if s.err == nil {
				warm = append(warm, ms(s.lat))
			}
		}
		untraced = median(warm)
	}
	served := spanSocket
	if w.routed {
		served = spanRoute
	}
	m["trace.overhead_pct"] = 100 * (spanMedians(rec.spans)[served]/1e3 - untraced) / untraced

	key := w.defaultSpec()
	if w.freshKeys {
		key = *sent[0].req.Model
	}
	probes, err := layerProbes(ctx, w, key)
	if err != nil {
		return nil, err
	}
	for k, x := range probes {
		m[k] = x
	}
	if m["client.table1_ratio"], err = table1Ratio(ctx, c, target, v, g, keys); err != nil {
		return nil, err
	}

	m["cluster.builds_per_key"] = float64(f.builds()) / float64(len(keys))
	retries, failovers := f.routerCounters()
	m["cluster.retries"], m["cluster.failovers"] = float64(retries), float64(failovers)
	g.require(f.builds() == len(keys), "fleet built %d models for %d distinct keys", f.builds(), len(keys))
	g.require(retries == 0 && failovers == 0, "router retried %d and failed over %d jobs", retries, failovers)
	if err := checkTree(rec.spans); err != nil {
		g.require(false, "span tree: %v", err)
	}
	if err := f.stop(); err != nil {
		return nil, fmt.Errorf("stopping the fleet: %w", err)
	}
	return m, writeSpans(spansPath, rec.spans)
}

// writeSpans writes the run's spans as NDJSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(fh)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			fh.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
