package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"cntfet/internal/fettoy"
	"cntfet/internal/server"
)

// workload is one traffic mix. Every workload is a closed loop with a
// single client: characterization scripts and circuit flows wait for
// each reply before sending the next request.
type workload struct {
	name string
	// family is the wire model family; empty sends no family, so the
	// server applies its default (model1).
	family        string
	gates, drains []float64
	// routed sends every job through an in-process cluster.Router over
	// two replicas instead of straight to one replica.
	routed bool
	// freshKeys gives every job its own seeded (T, EF) device key, so
	// each job pays a model build.
	freshKeys bool
	// warmup is the number of jobs set-up sends after the first build.
	warmup int
	// batch is how many jobs are timed back to back before their
	// bodies are decoded and checked.
	batch int
}

// linspace is n evenly spaced values from lo to hi inclusive.
func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

var (
	// Table I of the paper: 7 gates 0.3–0.6 V × 61 drains 0–0.6 V.
	table1Gates  = linspace(0.3, 0.6, 7)
	table1Drains = linspace(0, 0.6, 61)
	// Tables II–IV: 6 gates 0.1–0.6 V × 61 drains 0–0.6 V.
	cornerGates  = linspace(0.1, 0.6, 6)
	cornerDrains = linspace(0, 0.6, 61)
)

// workloads are fixed by name; later changes compare against them.
// BENCHMARK.json records why each was chosen. There is no large
// streamed sweep: a 64k-point job takes ~40 ms on two vCPUs, so every
// job spans host preemptions and the run's median latency followed the
// host's steal rate (+25% at 12% steal) instead of the program. The
// streamed answer path is checked by the accuracy pass instead.
var workloads = []workload{
	{
		// The Table-I request on the default family, warm cache.
		name:  "table1-warm",
		gates: table1Gates, drains: table1Drains, warmup: 64, batch: 32,
	},
	{
		// The same request on the table-backed reference theory.
		name:   "table1-reference",
		family: server.FamilyReference, gates: table1Gates, drains: table1Drains, warmup: 64, batch: 32,
	},
	{
		// Tables II–IV through the router, a new device key per job.
		name:  "corners-cold",
		gates: cornerGates, drains: cornerDrains, routed: true, freshKeys: true, warmup: 16, batch: 16,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// paperCorners are the nine (T, EF) devices of Tables II–IV.
func paperCorners() []server.ModelSpec {
	var out []server.ModelSpec
	for _, t := range []float64{150, 300, 450} {
		for _, ef := range []float64{-0.5, -0.32, 0} {
			ef := ef
			out = append(out, server.ModelSpec{T: t, EF: &ef})
		}
	}
	return out
}

// job is one generated request: the exact bytes sent and the decoded
// form the checks use.
type job struct {
	body   []byte
	req    server.JobRequest
	points int
}

// generator produces a workload's job sequence from a seed. The same
// seed gives byte-identical bodies in the same order.
type generator struct {
	w    workload
	rng  *rand.Rand
	seen map[string]bool
}

func newGenerator(w workload, seed int64) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
	for _, c := range paperCorners() {
		g.seen[c.Key()] = true
	}
	return g
}

// next returns the next job: the workload's grid with its gates in a
// seeded order and, for fresh-key workloads, a device key (T in
// [150, 450] K at 0.01 K, EF in [-0.5, 0] eV at 0.1 meV) never used
// before in this sequence.
func (g *generator) next() job {
	spec := server.ModelSpec{Family: g.w.family}
	if g.w.freshKeys {
		for {
			t := float64(15000+g.rng.Intn(30001)) / 100
			ef := float64(-g.rng.Intn(5001)) / 1e4
			spec.T, spec.EF = t, &ef
			if k := spec.Key(); !g.seen[k] {
				g.seen[k] = true
				break
			}
		}
	}
	gates := make([]float64, len(g.w.gates))
	for i, p := range g.rng.Perm(len(gates)) {
		gates[i] = g.w.gates[p]
	}
	return newJob(spec, gates, g.w.drains, false)
}

func newJob(spec server.ModelSpec, gates, drains []float64, stream bool) job {
	req := server.JobRequest{
		Kind:   "family-sweep",
		Model:  &spec,
		Gates:  gates,
		Drains: drains,
		Stream: stream,
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain data always marshals
	}
	return job{body: body, req: req, points: len(gates) * len(drains)}
}

// canonicalJob is the workload's grid in natural gate order at spec,
// answered buffered or streamed.
func (w workload) canonicalJob(spec server.ModelSpec, stream bool) job {
	return newJob(spec, w.gates, w.drains, stream)
}

// defaultSpec is the device key of the warm workloads.
func (w workload) defaultSpec() server.ModelSpec {
	return server.ModelSpec{Family: w.family}
}

// deviceOf resolves a wire spec to device parameters the way the
// server does: the default preset with T and EF overridden.
func deviceOf(spec server.ModelSpec) fettoy.Device {
	dev := fettoy.Default()
	if spec.T != 0 {
		dev.T = spec.T
	}
	if spec.EF != nil {
		dev.EF = *spec.EF
	}
	return dev
}
