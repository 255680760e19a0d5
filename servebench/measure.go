package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"cntfet/internal/fettoy"
	"cntfet/internal/server"
	"cntfet/internal/telemetry"
)

// setupRounds is how many times a run builds a fleet from nothing;
// setup_s is the median, so one slow round (first use of lazily
// initialised runtime and library state) does not set it.
const setupRounds = 9

// loopStats is what a closed-loop phase measured. Runtime and counter
// movement is summed over the timed windows only, so the checks run
// between windows are not charged to the server.
type loopStats struct {
	lat, ttfb     []time.Duration
	pointsPerS    []float64
	bytes, points int
	sent, ok      int
	rt            rtStats
	hits, misses  int64
	busy          time.Duration
}

// closedLoop sends jobs from next to url one at a time until the
// deadline, timing batches of jobs back to back and checking each
// batch's bodies after its timed window. between, when set, runs after
// each batch's checks.
func closedLoop(ctx context.Context, c *client, url string, w workload, next func() job, v *verifier, g *gate, deadline time.Time, between func() error) (*loopStats, error) {
	st := &loopStats{}
	bufs := make([][]byte, w.batch)
	jobs := make([]job, w.batch)
	samples := make([]sample, w.batch)
	reg := telemetry.Default()
	hits, misses := reg.Counter(telemetry.KeyServerCacheHits), reg.Counter(telemetry.KeyServerCacheMisses)
	for first := true; first || time.Now().Before(deadline); first = false {
		for i := range jobs {
			jobs[i] = next()
		}
		h0, m0 := hits.Value(), misses.Value()
		r0 := readRuntime()
		for i := range jobs {
			samples[i] = c.post(ctx, url, jobs[i].body, &bufs[i])
		}
		st.rt = st.rt.add(readRuntime().sub(r0))
		st.hits += hits.Value() - h0
		st.misses += misses.Value() - m0
		for i, s := range samples {
			st.sent++
			g.check(ctx, v, jobs[i], s, bufs[i])
			if s.err != nil {
				continue
			}
			st.ok++
			st.lat = append(st.lat, s.lat)
			st.ttfb = append(st.ttfb, s.ttfb)
			st.pointsPerS = append(st.pointsPerS, float64(jobs[i].points)/s.lat.Seconds())
			st.bytes += s.bytes
			st.points += jobs[i].points
			st.busy += s.lat
		}
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// keySet records the distinct model keys sent to a fleet.
type keySet map[string]bool

func (k keySet) wrap(next func() job) func() job {
	return func() job {
		j := next()
		k[server.RouteKey(j.req)] = true
		return j
	}
}

// setupFleet builds a fleet from nothing and sends the first job (the
// model build) and the workload's warm-up jobs through it. The
// answers are checked after the caller stops the set-up clock.
func setupFleet(ctx context.Context, c *client, w workload, next func() job, bufs [][]byte) (*fleet, []job, []sample, error) {
	replicas := 1
	if w.routed {
		replicas = 2
	}
	f, err := startFleet(ctx, replicas, w.routed)
	if err != nil {
		return nil, nil, nil, err
	}
	jobs := make([]job, len(bufs))
	samples := make([]sample, len(bufs))
	for i := range jobs {
		jobs[i] = next()
		samples[i] = c.post(ctx, f.target(), jobs[i].body, &bufs[i])
	}
	return f, jobs, samples, nil
}

// runEndToEnd is the untraced run: set-up rounds, then the timed
// closed loop, then the served-accuracy pass. It returns the
// end-to-end metrics.
func runEndToEnd(ctx context.Context, w workload, seed int64, seconds float64, g *gate) (map[string]float64, error) {
	v := newVerifier()
	c := newClient()
	defer c.close()

	// setupRound builds a fleet from nothing and times it through the
	// first job and the warm-up from next; the answers are checked after
	// the clock stops. Every round starts from a collected heap, so
	// whether a round contains a collection does not depend on the last.
	var bufs [][]byte
	setupRound := func(next func() job) (*fleet, float64, error) {
		if bufs == nil {
			bufs = make([][]byte, 1+w.warmup)
		}
		runtime.GC()
		t0 := time.Now()
		f, jobs, samples, err := setupFleet(ctx, c, w, next, bufs)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(t0).Seconds()
		for i := range jobs {
			g.check(ctx, v, jobs[i], samples[i], bufs[i])
		}
		return f, d, nil
	}

	gen := newGenerator(w, seed)
	keys := keySet{}
	f, d, err := setupRound(keys.wrap(gen.next))
	if err != nil {
		return nil, err
	}
	defer f.stop()
	setups := []float64{d}
	bufs = nil // the benchmark's read buffers are not the server's heap
	heap := liveHeap()

	// The other set-up rounds are spread evenly over the loop, each on a
	// throwaway fleet with its own seeded requests, so setup_s samples
	// the machine in the same minutes as the latencies do.
	extraRound := func() error {
		tf, d, err := setupRound(newGenerator(w, seed+int64(len(setups))<<32).next)
		if err != nil {
			return err
		}
		setups = append(setups, d)
		return tf.stop()
	}
	start := time.Now()
	span := time.Duration(seconds * float64(time.Second))
	between := func() error {
		if len(setups) < setupRounds && time.Since(start) >= time.Duration(len(setups))*span/setupRounds {
			return extraRound()
		}
		return nil
	}
	st, err := closedLoop(ctx, c, f.target(), w, keys.wrap(gen.next), v, g, start.Add(span), between)
	if err != nil {
		return nil, err
	}
	if st.ok == 0 {
		return nil, fmt.Errorf("no job succeeded")
	}
	for len(setups) < setupRounds {
		if err := extraRound(); err != nil {
			return nil, err
		}
	}

	rms, err := servedRMS(ctx, c, f, w, v, g, keys)
	if err != nil {
		return nil, err
	}
	g.require(f.builds() == len(keys), "fleet built %d models for %d distinct keys", f.builds(), len(keys))
	retries, failovers := f.routerCounters()
	g.require(retries == 0 && failovers == 0, "router retried %d and failed over %d jobs", retries, failovers)
	if err := f.stop(); err != nil {
		return nil, fmt.Errorf("stopping the fleet: %w", err)
	}

	return map[string]float64{
		"latency_p50_ms":        median(durations(st.lat, ms)),
		"ttfb_p50_ms":           median(durations(st.ttfb, ms)),
		"points_per_s":          median(st.pointsPerS),
		"setup_s":               median(setups),
		"setup_heap_mb":         heap / 1e6,
		"wire_bytes_per_point":  float64(st.bytes) / float64(st.points),
		"alloc_bytes_per_point": float64(st.rt.allocBytes) / float64(st.points),
		"served_rms_max_pct":    rms,
	}, nil
}

// servedRMS requests the workload's grid at its accuracy keys (the
// workload key, or the paper's nine corners for fresh-key workloads)
// and returns the worst per-gate RMS error, in percent, of the served
// currents against the direct-quadrature reference theory. Each key is
// also requested as a streamed NDJSON answer, which the gate checks
// like every other served answer.
func servedRMS(ctx context.Context, c *client, f *fleet, w workload, v *verifier, g *gate, keys keySet) (float64, error) {
	specs := []server.ModelSpec{w.defaultSpec()}
	if w.freshKeys {
		specs = paperCorners()
	}
	type row struct {
		ref   *fettoy.Model
		curve server.Curve
	}
	var rows []row
	var buf []byte
	for _, spec := range specs {
		js := w.canonicalJob(spec, true)
		g.check(ctx, v, js, c.post(ctx, f.target(), js.body, &buf), buf)
		j := w.canonicalJob(spec, false)
		keys[server.RouteKey(j.req)] = true
		s := c.post(ctx, f.target(), j.body, &buf)
		g.check(ctx, v, j, s, buf)
		if s.err != nil {
			continue
		}
		served, err := decodeRows(j.req, buf)
		if err != nil || len(served) != len(w.gates) {
			continue // already counted by the check above
		}
		ref, err := fettoy.New(deviceOf(spec))
		if err != nil {
			return 0, err
		}
		for _, curve := range served {
			rows = append(rows, row{ref, curve})
		}
	}
	errs := make([]float64, len(rows))
	err := parallelFor(len(rows), func(i int) error {
		e, err := rmsPercent(rows[i].ref, rows[i].curve)
		if err != nil {
			return fmt.Errorf("reference at vg %v: %w", rows[i].curve.VG, err)
		}
		errs[i] = e
		return nil
	})
	worst := 0.0
	for _, e := range errs {
		worst = math.Max(worst, e)
	}
	return worst, err
}

// rmsPercent is the paper's per-curve error, 100·sqrt(mean((I−Iref)²))
// / mean(Iref), against the reference model on the curve's grid.
func rmsPercent(ref *fettoy.Model, c server.Curve) (float64, error) {
	bias := make([]fettoy.Bias, len(c.VDS))
	for i, vd := range c.VDS {
		bias[i] = fettoy.Bias{VG: c.VG, VD: vd}
	}
	want := make([]float64, len(bias))
	if err := ref.IDSBatch(bias, want); err != nil {
		return 0, err
	}
	var sum, mean float64
	for i, r := range want {
		d := c.IDS[i] - r
		sum += d * d
		mean += r
	}
	n := float64(len(want))
	if mean <= 0 {
		return 0, fmt.Errorf("reference mean current %g not positive", mean/n)
	}
	return 100 * math.Sqrt(sum/n) / (mean / n), nil
}
