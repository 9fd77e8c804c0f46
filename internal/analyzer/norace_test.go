//go:build !race

package analyzer_test

const raceEnabled = false
