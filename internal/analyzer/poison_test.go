package analyzer_test

import (
	"os"
	"testing"

	"github.com/celltrace/pdt/internal/spare"
)

// TestMain runs every test of the package with spare arrays poisoned:
// each array a kernel or a stream's piece gives back is filled with
// 0xA5, so a kernel that reads an element it did not write, or an array
// after giving it back, answers with garbage and the package's pins see
// it.
func TestMain(m *testing.M) {
	spare.Poison(true)
	os.Exit(m.Run())
}
