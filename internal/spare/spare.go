// Package spare keeps arrays for reuse. A large array that a call
// allocates, writes in full and drops before it returns costs the
// runtime a zeroing pass, and — once the scavenger has handed its pages
// back between calls — a page fault on every page the call first
// touches. A List keeps such arrays after their call instead, bounded
// by count and by bytes, so that idle arrays stay a fixed, small part
// of the heap.
//
// A spare array holds whatever its last user wrote: every user writes
// each element it reads. Tests turn Poison on, which fills every array
// offered back with 0xA5 bytes, so a read of an element not written —
// or of an array after it went back — reads garbage and shows.
package spare

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// poison is the Poison switch.
var poison atomic.Bool

// Poison turns poisoning on or off for every list: when on, each array
// offered back to a list is filled with 0xA5 to its capacity, kept or
// not. Tests only; a test binary sets it in TestMain.
func Poison(on bool) { poison.Store(on) }

// Budget is the byte bound that one or more lists share, and the lock
// they share with it.
type Budget struct {
	mu      sync.Mutex
	max     int64
	bytes   int64    // capacity, in bytes, that its lists keep together
	empties []func() // one per list, each dropping what the list keeps
}

// NewBudget returns a budget of maxBytes.
func NewBudget(maxBytes int64) *Budget { return &Budget{max: maxBytes} }

// Bytes returns the capacity, in bytes, that the budget's lists keep.
func (b *Budget) Bytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytes
}

// Empty drops every array the budget's lists keep.
func (b *Budget) Empty() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, empty := range b.empties {
		empty()
	}
	b.bytes = 0
}

// List is a free list of arrays of T, at most maxCount of them, whose
// capacities count against its budget. T must hold no pointers: a kept
// array holds garbage, and poisoning writes bytes. An array taken from
// a list belongs to its caller until the caller gives it back.
type List[T any] struct {
	maxCount int
	budget   *Budget
	free     [][]T // by capacity, smallest first; guarded by budget.mu
}

// New returns an empty list of at most maxCount arrays on budget.
func New[T any](maxCount int, budget *Budget) *List[T] {
	l := &List[T]{maxCount: maxCount, budget: budget}
	budget.mu.Lock()
	defer budget.mu.Unlock()
	budget.empties = append(budget.empties, func() { l.free = slices.Delete(l.free, 0, len(l.free)) })
	return l
}

// sizeOf is the bytes of n elements of T.
func sizeOf[T any](n int) int64 {
	var v T
	return int64(n) * int64(unsafe.Sizeof(v))
}

// Get takes the smallest free array of capacity at least n off the list
// and returns it with length 0, or returns nil when none has: a length
// no free array holds is served as if the list were empty.
func (l *List[T]) Get(n int) []T {
	l.budget.mu.Lock()
	defer l.budget.mu.Unlock()
	for i, s := range l.free {
		if cap(s) >= n {
			l.free = slices.Delete(l.free, i, i+1)
			l.budget.bytes -= sizeOf[T](cap(s))
			return s[:0]
		}
	}
	return nil
}

// Make returns an array of length n: a free one from the list, holding
// what its last user wrote, or a new one.
func (l *List[T]) Make(n int) []T {
	if s := l.Get(n); s != nil {
		return s[:n]
	}
	return make([]T, n)
}

// Put offers back an array its caller is done with. The array is kept
// when the bounds allow it once smaller arrays of the list are dropped,
// smallest first; otherwise it is dropped and the list stays as it was.
// An array larger than the whole budget is never kept.
func (l *List[T]) Put(s []T) {
	c := cap(s)
	if c == 0 {
		return
	}
	n := sizeOf[T](c)
	if poison.Load() {
		b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), n)
		for i := range b {
			b[i] = 0xA5
		}
	}
	l.budget.mu.Lock()
	defer l.budget.mu.Unlock()
	drop, freed := 0, int64(0)
	for len(l.free)-drop >= l.maxCount || l.budget.bytes-freed+n > l.budget.max {
		if drop == len(l.free) || cap(l.free[drop]) >= c {
			return
		}
		freed += sizeOf[T](cap(l.free[drop]))
		drop++
	}
	l.free = slices.Delete(l.free, 0, drop)
	at := len(l.free)
	for at > 0 && cap(l.free[at-1]) > c {
		at--
	}
	l.free = slices.Insert(l.free, at, s[:0])
	l.budget.bytes += n - freed
}

// Caps lists the capacities of the free arrays, smallest first.
func (l *List[T]) Caps() []int {
	l.budget.mu.Lock()
	defer l.budget.mu.Unlock()
	out := make([]int, len(l.free))
	for i, s := range l.free {
		out[i] = cap(s)
	}
	return out
}
