//go:build unix && go1.24

package harness

// Main memory is a demand-zeroed mapping here (internal/cell/mem_unix.go).
func init() { maxUntracedRunBytes = 8 << 20 }
