//go:build !race

package cache_test

const raceEnabled = false
