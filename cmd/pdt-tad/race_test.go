//go:build race

package main

// raceEnabled reports a -race build. The race detector's instrumentation
// allocates beside the code it watches, so byte-exact allocation pins
// skip under it.
const raceEnabled = true
