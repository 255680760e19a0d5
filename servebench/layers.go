package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cntfet/internal/core"
	"cntfet/internal/device"
	"cntfet/internal/engine"
	"cntfet/internal/fettoy"
	"cntfet/internal/server"
	"cntfet/internal/telemetry"
)

// Bounds on the layer phase's traced inputs: enough for stable
// medians, few enough to keep the spans held in memory small.
const (
	minInputs = 8
	maxInputs = 400
)

// layerPhase calls every layer on the same inputs until the deadline
// or until inputs reports none left, one span per call, and returns
// the layer metrics. home is the unrouted workload's replica (nil when
// routed).
func layerPhase(ctx context.Context, c *client, f *fleet, w workload, home *replica, inputs func() (job, bool), v *verifier, g *gate, rec *recorder, deadline time.Time) (map[string]float64, error) {
	procs := runtime.GOMAXPROCS(0)
	workerKeys := make([]string, procs)
	for i := range workerKeys {
		workerKeys[i] = fmt.Sprintf(telemetry.KeySweepWorkerPointsFmt, i)
	}
	workerPoints := make([]int64, procs)
	var handlerAlloc uint64
	var buf []byte
	n := 0
	for ; n < maxInputs && (n < minInputs || time.Now().Before(deadline)); n++ {
		j, ok := inputs()
		if !ok {
			break
		}
		want, err := v.want(ctx, j.req)
		if err != nil {
			return nil, err
		}
		check := func(s sample, body []byte) { g.compare(j, s, body, want, nil) }
		trace := rec.input()

		t := time.Now()
		s := c.post(ctx, f.routerBase, j.body, &buf)
		rec.record(trace, spanRoute, t, s.lat)
		check(s, buf)
		jobHome := f.replicaAt(s.replica)
		if jobHome == nil || (home != nil && jobHome != home) {
			return nil, fmt.Errorf("routed answer from replica %q, not the key's home (%v)", s.replica, s.err)
		}

		t = time.Now()
		s = c.post(ctx, jobHome.base, j.body, &buf)
		rec.record(trace, spanSocket, t, s.lat)
		check(s, buf)

		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(j.body))
		req.Header.Set("Content-Type", "application/json")
		rw := httptest.NewRecorder()
		r0 := readRuntime()
		t = time.Now()
		jobHome.srv.Handler().ServeHTTP(rw, req)
		d := time.Since(t)
		handlerAlloc += readRuntime().sub(r0).allocBytes
		rec.record(trace, spanHandler, t, d)
		var hs sample
		if rw.Code != http.StatusOK {
			hs.err = fmt.Errorf("in-process handler status %d: %.200s", rw.Code, rw.Body.Bytes())
		}
		check(hs, rw.Body.Bytes())

		t = time.Now()
		model, cached, err := jobHome.cache.Resolve(ctx, *j.req.Model)
		rec.record(trace, spanResolve, t, time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("resolve: %w", err)
		}
		g.require(cached, "resolve of %s on its home replica missed the cache", j.req.Model.Key())

		// engine.Run as the handler calls it for a buffered answer.
		er := engine.Request{Kind: engine.FamilySweep, Model: model, Gates: j.req.Gates, Drains: j.req.Drains}
		w0 := counterValues(workerKeys)
		t = time.Now()
		res, err := engine.Run(ctx, er)
		rec.record(trace, spanEngine, t, time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("engine.Run: %w", err)
		}
		for i, x := range counterValues(workerKeys) {
			workerPoints[i] += x - w0[i]
		}
		g.require(len(res.Family) == len(want), "engine.Run returned %d rows, want %d", len(res.Family), len(want))

		t = time.Now()
		telemetry.Default().Snapshot()
		rec.record(trace, spanSnapshot, t, time.Since(t))

		sink := &firstRowSink{}
		er.Sink = sink
		t = time.Now()
		if _, err := engine.Run(ctx, er); err != nil {
			return nil, fmt.Errorf("engine.Run with sink: %w", err)
		}
		rec.record(trace, spanFirstRow, t, sink.first.Sub(t))

		bs, ok := model.(device.BatchSolver)
		if !ok {
			return nil, fmt.Errorf("%T has no batch kernel", model)
		}
		rows := kernelRows(j.req.Gates, j.req.Drains)
		out := make([][]float64, len(rows))
		for i := range out {
			out[i] = make([]float64, len(j.req.Drains))
		}
		t = time.Now()
		// The bare kernel with GOMAXPROCS goroutines taking whole rows in
		// turn: the floor any sweep scheduler on this machine could reach.
		if err := parallelFor(len(rows), func(i int) error { return bs.IDSBatch(rows[i], out[i]) }); err != nil {
			return nil, fmt.Errorf("kernel: %w", err)
		}
		rec.record(trace, spanKernel, t, time.Since(t))
	}

	med := spanMedians(rec.spans)
	self := func(name string) float64 { return med[name] - med[chainInner[name]] }
	lo, hi := workerPoints[0], workerPoints[0]
	for _, p := range workerPoints {
		lo, hi = min(lo, p), max(hi, p)
	}
	return map[string]float64{
		"cluster.relay_us":           self(spanRoute),
		"server.socket_us":           self(spanSocket),
		"server.handler_us":          med[spanHandler],
		"server.self_us":             self(spanHandler),
		"server.resolve_us":          med[spanResolve],
		"server.alloc_bytes_per_job": float64(handlerAlloc) / float64(max(n, 1)),
		"engine.run_us":              med[spanEngine],
		"engine.overhead_us":         self(spanEngine),
		"sweep.first_row_us":         med[spanFirstRow],
		"sweep.worker_balance":       float64(lo) / float64(max(hi, 1)),
		"telemetry.snapshot_us":      med[spanSnapshot],
	}, nil
}

// firstRowSink discards rows, noting when the first one arrived.
type firstRowSink struct{ first time.Time }

func (s *firstRowSink) Emit(engine.Event) error {
	if s.first.IsZero() {
		s.first = time.Now()
	}
	return nil
}

// kernelRows is a grid as one bias slice per gate row.
func kernelRows(gates, drains []float64) [][]fettoy.Bias {
	rows := make([][]fettoy.Bias, len(gates))
	for i, vg := range gates {
		rows[i] = make([]fettoy.Bias, len(drains))
		for j, vd := range drains {
			rows[i][j] = fettoy.Bias{VG: vg, VD: vd}
		}
	}
	return rows
}

// parallelFor calls fn for 0..n-1 on GOMAXPROCS goroutines, each
// taking the next index in turn, and returns the first error.
func parallelFor(n int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// counterValues reads telemetry counters by name.
func counterValues(names []string) []int64 {
	out := make([]int64, len(names))
	for i, n := range names {
		out[i] = telemetry.Default().Counter(n).Value()
	}
	return out
}

// layerProbes times single layers directly at the workload's device
// key and grid: the two batch kernels, the piecewise fit and the
// charge-table build, and the memory a cached model retains.
func layerProbes(ctx context.Context, w workload, spec server.ModelSpec) (map[string]float64, error) {
	dev := deviceOf(spec)
	rows := kernelRows(w.gates, w.drains)
	points := float64(len(w.gates) * len(w.drains))
	m := map[string]float64{}

	quad := []string{telemetry.KeyFettoyQuadPoints}
	var fitMS []float64
	var m1 *core.Model
	q0 := counterValues(quad)
	for i := 0; i < 5; i++ {
		ref, err := fettoy.New(dev)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if m1, err = core.Model1(ref); err != nil {
			return nil, fmt.Errorf("core.Model1: %w", err)
		}
		fitMS = append(fitMS, ms(time.Since(t)))
	}
	m["core.fit_ms"] = median(fitMS)
	m["fettoy.quad_points_per_fit"] = float64(counterValues(quad)[0]-q0[0]) / float64(len(fitMS))

	regions := []string{"none", "linear", "quadratic", "cardano", "trig"}
	keys := []string{telemetry.KeyCoreDispatchNone, telemetry.KeyCoreDispatchLinear, telemetry.KeyCoreDispatchQuadratic, telemetry.KeyCoreDispatchCardano, telemetry.KeyCoreDispatchTrig}
	ns, counts, err := kernelProbe(m1, rows, keys)
	if err != nil {
		return nil, fmt.Errorf("core kernel: %w", err)
	}
	m["core.kernel_ns_per_point"] = ns / points
	for i, r := range regions {
		m["core.dispatch_per_point."+r] = counts[i] / points
	}

	var buildMS []float64
	var ref *fettoy.Model
	for i := 0; i < 3; i++ {
		var err error
		if ref, err = fettoy.New(dev); err != nil {
			return nil, err
		}
		tab := ref.EnableTable(fettoy.TableOptions{})
		t := time.Now()
		if err := tab.BuildContext(ctx); err != nil {
			return nil, fmt.Errorf("charge table: %w", err)
		}
		buildMS = append(buildMS, ms(time.Since(t)))
	}
	m["fettoy.table_build_ms"] = median(buildMS)
	ns, counts, err = kernelProbe(ref, rows, []string{telemetry.KeyFettoyNewtonIters, telemetry.KeyFettoyTableHits, telemetry.KeyFettoyTableMisses})
	if err != nil {
		return nil, fmt.Errorf("fettoy kernel: %w", err)
	}
	m["fettoy.kernel_ns_per_point"] = ns / points
	m["fettoy.newton_iters_per_point"] = counts[0] / points
	m["fettoy.table_hit_ratio"] = counts[1] / math.Max(counts[1]+counts[2], 1)

	kb, err := retainedPerKey(ctx, w.family)
	if err != nil {
		return nil, err
	}
	m["server.retained_kb_per_key"] = kb
	return m, nil
}

// kernelProbe times the serial batch kernel over the grid, row by row,
// at least three times and for at least 200 ms, returning the median
// nanoseconds per pass and the named counters' movement per pass.
func kernelProbe(m device.BatchSolver, rows [][]fettoy.Bias, names []string) (float64, []float64, error) {
	out := make([]float64, len(rows[0]))
	var ns []float64
	c0 := counterValues(names)
	start := time.Now()
	for len(ns) < 3 || (len(ns) < 100 && time.Since(start) < 200*time.Millisecond) {
		t := time.Now()
		for _, r := range rows {
			if err := m.IDSBatch(r, out); err != nil {
				return 0, nil, err
			}
		}
		ns = append(ns, float64(time.Since(t).Nanoseconds()))
	}
	counts := make([]float64, len(names))
	for i, x := range counterValues(names) {
		counts[i] = float64(x-c0[i]) / float64(len(ns))
	}
	return median(ns), counts, nil
}

// retainedPerKey resolves fresh keys of the family into a new
// ModelCache, builds any deferred charge table as the first job would,
// and returns the live heap each cached model keeps, in KiB.
func retainedPerKey(ctx context.Context, family string) (float64, error) {
	k := 64
	if family == server.FamilyReference {
		k = 16
	}
	before := liveHeap()
	mc := server.NewModelCache()
	for i := 0; i < k; i++ {
		m, _, err := mc.Resolve(ctx, server.ModelSpec{Family: family, T: 200 + float64(i)})
		if err != nil {
			return 0, fmt.Errorf("retained resolve: %w", err)
		}
		if cb, ok := m.(device.ContextBuilder); ok {
			if err := cb.BuildContext(ctx); err != nil {
				return 0, err
			}
		}
	}
	after := liveHeap()
	runtime.KeepAlive(mc)
	return (after - before) / float64(k) / 1024, nil
}

// table1Ratio is the served Table I ratio as a client sees it: the
// median latency of the Table-I request on the reference family over
// that on model1, sent alternately to target after five warm-up pairs.
func table1Ratio(ctx context.Context, c *client, target string, v *verifier, g *gate, keys keySet) (float64, error) {
	m1 := newJob(server.ModelSpec{}, table1Gates, table1Drains, false)
	ref := newJob(server.ModelSpec{Family: server.FamilyReference}, table1Gates, table1Drains, false)
	keys[server.RouteKey(m1.req)] = true
	keys[server.RouteKey(ref.req)] = true
	var buf []byte
	var a, b []float64
	for i := 0; i < 105; i++ {
		for _, p := range []struct {
			j   job
			lat *[]float64
		}{{m1, &a}, {ref, &b}} {
			s := c.post(ctx, target, p.j.body, &buf)
			g.check(ctx, v, p.j, s, buf)
			if i >= 5 && s.err == nil {
				*p.lat = append(*p.lat, us(s.lat))
			}
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return 0, fmt.Errorf("table1 ratio: no successful pairs")
	}
	return median(b) / median(a), nil
}
