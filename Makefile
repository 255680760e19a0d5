GO ?= go
# GATE_THRESHOLD is the fractional points/sec regression make benchgate
# tolerates before failing (0.15 = 15%). CI overrides it upward to ride
# out shared-runner noise.
GATE_THRESHOLD ?= 0.15

.PHONY: check lint vet build test race bench benchgate benchsmoke scalebench servesmoke shardsmoke

## check: the tier-1 gate — vet + cntlint, build, plain tests (the
## zero-alloc kernel guards only assert outside -race), race-enabled
## tests, a build-only smoke of the sweep benchmark (tiny grid, no
## timing assertion: timing under a loaded CI machine is noise), the
## sweep-service smoke, and the sharded-fleet smoke.
check: lint build test race benchsmoke servesmoke shardsmoke

## lint: go vet plus the project analyzer suite (cmd/cntlint):
## telemetry key registry, context propagation, float comparisons,
## atomic field discipline, unit documentation, error-wrap chains,
## zero-alloc annotations, sink/goroutine contracts and the error
## taxonomy <-> HTTP status map. Suppress a finding with
## //lint:allow <analyzer> <reason> on or above the line; cntlint
## -fix applies suggested fixes, -json/-github change the output.
lint: vet
	$(GO) run ./cmd/cntlint ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: telemetry overhead + solver benchmarks, the in-process
## buffered Table-I handler (model1 and reference, ns/op and allocs/op),
## then the before/after sweep-engine comparison. Writes
## BENCH_sweep.json at the repo root and fails if the batched engine is
## slower than the legacy scheduler.
bench:
	$(GO) test -bench=IDSTelemetry -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench=HandlerTable1 -benchmem ./internal/server/
	$(GO) run ./cmd/cntbench -sweepbench -assert-faster -out BENCH_sweep.json

## benchgate: the perf-regression gate — re-runs the sweep benchmark
## (with an untimed warm-up pass baked into the tool) and compares
## points/sec of the batched and closed-form serving paths against the
## checked-in BENCH_sweep.json baseline, failing when either regresses
## more than GATE_THRESHOLD. The fresh run lands in BENCH_gate.json
## (gitignored). Refresh the baseline by running make bench on the
## machine that owns it.
benchgate:
	$(GO) run ./cmd/cntbench -sweepbench -gate BENCH_sweep.json -gate-threshold $(GATE_THRESHOLD) -out BENCH_gate.json

## scalebench: the 1->N worker scaling curve for both model families
## (points/sec, efficiency, counter deltas per worker count). Writes
## BENCH_scale.json at the repo root.
scalebench:
	$(GO) run ./cmd/cntbench -scalebench -out BENCH_scale.json

benchsmoke:
	$(GO) run ./cmd/cntbench -sweepbench -points 9 -repeats 1 -out /dev/null

## servesmoke: end-to-end smoke of the sweep service — cntserve binds
## an ephemeral port, POSTs itself one family-sweep, asserts a 200
## with a non-empty family, scrapes /metrics through the Prometheus
## conformance checker, checks /metrics.json and /healthz, verifies
## the job's trace ID correlates the access log, job log and
## /debug/trace spans, re-runs the sweep streamed (incremental NDJSON
## frames bit-identical to the buffered rows, Trace-Id header in the
## log), restarts against the snapshot dir (reference charge table
## loaded from disk, zero rebuilds), and shuts down gracefully.
servesmoke:
	$(GO) run ./cmd/cntserve -selftest

## shardsmoke: end-to-end smoke of the sharded fleet — cntshard boots
## two in-process cntserve replicas behind the rendezvous router and
## asserts the routing contract: N distinct model keys build exactly N
## charge tables fleet-wide (affinity, stable Cntshard-Replica per
## key; re-posts are zero-build local hits), a streamed family sweep
## relays frame-by-frame bit-identical to the buffered rows, killing a
## key's home replica fails the key over to the survivor in hash order
## with a bit-identical answer, the router /healthz converges on the
## kill, and /metrics passes the Prometheus conformance checker with
## the cluster.route.* counters and per-replica health gauges.
shardsmoke:
	$(GO) run ./cmd/cntshard -selftest
