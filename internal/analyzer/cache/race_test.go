//go:build race

package cache_test

// raceEnabled reports a -race build. The race detector slows the loads
// the heap and byte pins repeat by an order of magnitude and changes
// neither measurement, so those tests skip under it.
const raceEnabled = true
