// Command servebench is the serve-path benchmark: it drives in-process
// cntserve replicas (and, for one workload, a cntshard router in front
// of two of them) over loopback HTTP from a one-client closed loop in
// the same Go runtime, checks every served answer against engine.Run,
// and prints the end-to-end metrics — or, with -trace 1, the per-layer
// ledger of a separate traced pass, whose spans it writes to
// .bench_build/spans/ under the current directory.
//
//	servebench --workload table1-warm --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits 1 when any
// correctness check fails and 2 when it cannot run at all. Telemetry
// is enabled as cntserve enables it; span tracing stays off.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"

	"cntfet/internal/telemetry"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a client of the service sees, reported on
// every workload by the untraced run.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"ttfb_p50_ms", "ms"},
	{"points_per_s", "1/s"},
	{"setup_s", "s"},
	{"setup_heap_mb", "MB"},
	{"wire_bytes_per_point", "B"},
	{"alloc_bytes_per_point", "B"},
	{"served_rms_max_pct", "%"},
}

// perLayer are the traced run's metrics. The comment on each group
// names the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	// corners-cold latency_p50_ms
	{"cluster.relay_us", "us"},
	{"cluster.retries", "count"},
	{"cluster.failovers", "count"},
	{"cluster.builds_per_key", "ratio"},
	// table1-* latency_p50_ms, wire_bytes_per_point, alloc_bytes_per_point
	{"server.handler_us", "us"},
	{"server.self_us", "us"},
	{"server.socket_us", "us"},
	{"server.resolve_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.alloc_bytes_per_job", "B"},
	{"server.retained_kb_per_key", "KiB"},
	// table1-warm latency_p50_ms
	{"engine.run_us", "us"},
	{"engine.overhead_us", "us"},
	// table1-warm latency_p50_ms, points_per_s (the row scheduler)
	{"sweep.first_row_us", "us"},
	{"sweep.worker_balance", "ratio"},
	// table1-warm points_per_s; corners-cold latency_p50_ms
	{"core.kernel_ns_per_point", "ns"},
	{"core.dispatch_per_point.none", "count"},
	{"core.dispatch_per_point.linear", "count"},
	{"core.dispatch_per_point.quadratic", "count"},
	{"core.dispatch_per_point.cardano", "count"},
	{"core.dispatch_per_point.trig", "count"},
	{"core.fit_ms", "ms"},
	// table1-reference latency_p50_ms, setup_s; corners-cold latency_p50_ms
	{"fettoy.kernel_ns_per_point", "ns"},
	{"fettoy.newton_iters_per_point", "count"},
	{"fettoy.table_hit_ratio", "ratio"},
	{"fettoy.table_build_ms", "ms"},
	{"fettoy.quad_points_per_fit", "count"},
	// table1-warm latency_p50_ms
	{"telemetry.snapshot_us", "us"},
	// every workload's latency_p50_ms and alloc_bytes_per_point
	{"runtime.gc_cycles_per_kjob", "count"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.allocs_per_job", "count"},
	// diagnostics
	{"client.latency_p99_ms", "ms"},
	{"client.tail_samples", "count"},
	{"client.jobs_per_s", "1/s"},
	{"client.sent", "count"},
	{"client.ok", "count"},
	{"client.failed", "count"},
	{"client.table1_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// environment is recorded with every result.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Telemetry  bool   `json:"telemetry"`
	Tracing    bool   `json:"span_tracing"`
}

func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "request-sequence seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	os.Exit(run(*name, *seed, *seconds, *trace))
}

func run(name string, seed int64, seconds, trace int) int {
	w, err := workloadByName(name)
	if err != nil || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: bad arguments (%v); workloads:", err)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	telemetry.Enable()
	env := environment{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Revision: revision(),
		Telemetry: telemetry.On(), Tracing: telemetry.DefaultTracer().Enabled(),
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	ctx := context.Background()
	g := &gate{}
	defs := endToEnd
	var values map[string]float64
	if trace == 1 {
		defs = perLayer
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.ndjson", name, seed))
		values, err = runTraced(ctx, w, seed, float64(seconds), g, path)
		if err == nil {
			fmt.Printf("spans %s\n", path)
		}
	} else {
		values, err = runEndToEnd(ctx, w, seed, float64(seconds), g)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	return report(g, defs, values)
}

// report prints each metric on its own line, then the result object,
// and returns the exit code.
func report(g *gate, defs []metricDef, values map[string]float64) int {
	out := result{Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			g.require(false, "metric %s not measured (%v)", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("metric %-36s %16.6g %s\n", d.name, v, d.unit)
	}
	var extra []string
	for k := range values {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		if _, ok := out.Metrics[k]; !ok {
			g.require(false, "metric %s measured but not declared", k)
		}
	}
	for _, e := range g.errs {
		fmt.Fprintln(os.Stderr, "servebench: check failed:", e)
	}
	out.Correct = g.correct()
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}
