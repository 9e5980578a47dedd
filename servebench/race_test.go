//go:build race

package main

// raceEnabled reports a race-instrumented build, which serves several times
// slower than the open-loop rates assume.
const raceEnabled = true
