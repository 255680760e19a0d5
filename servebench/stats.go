package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs at q in [0, 1].
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// above counts the samples greater than v.
func above(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// liveHeap forces collections and returns the heap the last one
// marked live, in bytes. The second collection frees what sync.Pool
// victim caches kept alive through the first.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// durations converts to float64 in the given unit function.
func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// rtStats is a reading of the runtime counters the ledger uses.
type rtStats struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

// readRuntime reads the allocation and collection counters through
// ReadMemStats, which stops the world and flushes the per-P allocation
// caches, so allocations are counted when they happen and not when
// their span is next swapped; GC CPU comes from runtime/metrics.
func readRuntime() rtStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return rtStats{
		allocBytes:   m.TotalAlloc,
		allocObjects: m.Mallocs,
		gcCycles:     uint64(m.NumGC),
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
	}
}

// sub is the movement from an earlier reading.
func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
		totalCPU:     a.totalCPU - b.totalCPU,
	}
}

func (a rtStats) add(b rtStats) rtStats {
	return rtStats{
		allocBytes:   a.allocBytes + b.allocBytes,
		allocObjects: a.allocObjects + b.allocObjects,
		gcCycles:     a.gcCycles + b.gcCycles,
		gcCPU:        a.gcCPU + b.gcCPU,
		totalCPU:     a.totalCPU + b.totalCPU,
	}
}
