//go:build race

package main

// raceEnabled: the race detector slows every request about tenfold, so
// the open-loop generator cannot keep its schedule and tests that time
// the run relax their expectations.
const raceEnabled = true
