package cache

import (
	"context"

	"github.com/celltrace/pdt/internal/analyzer"
)

// SideError tags a load failure with which side of a pair produced it,
// so the diff endpoint can doctor the failing side specifically.
type SideError struct {
	Side string // "a" or "b"
	Err  error
	// Image is the failing side's hashed image, for follow-up doctoring.
	Image Image
}

func (e *SideError) Error() string { return "side " + e.Side + ": " + e.Err.Error() }
func (e *SideError) Unwrap() error { return e.Err }

// LoadPair loads two hashed trace images concurrently through the
// cache, so a diff request pays at most one load per distinct content
// address — none when both sides are already cached, and exactly one
// when the two sides are byte-identical (the second request piggybacks
// on the first's flight). Each side that loads is passed to then (nil =
// none) on its own goroutine as soon as it settles, i being 0 for a and
// 1 for b, so work on one side overlaps the other's load; a panic in
// then reaches the caller. A failure is reported as a *SideError naming
// the side; when both sides fail, side "a" wins deterministically.
func (c *Cache) LoadPair(ctx context.Context, a, b Image, lim analyzer.Limits, then func(i int, h *Handle)) (ha, hb *Handle, err error) {
	ims := [2]Image{a, b}
	var hs [2]*Handle
	var errs [2]error
	analyzer.RunParallel(2, 2, func(i int) {
		hs[i], errs[i] = c.load(ctx, ims[i], lim)
		if errs[i] == nil && then != nil {
			then(i, hs[i])
		}
	})
	for i, side := range [2]string{"a", "b"} {
		if errs[i] != nil {
			return nil, nil, &SideError{Side: side, Err: errs[i], Image: ims[i]}
		}
	}
	return hs[0], hs[1], nil
}
