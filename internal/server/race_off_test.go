//go:build !race

package server

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions only hold without instrumentation.
const raceEnabled = false
