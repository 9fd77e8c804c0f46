package spare

import (
	"fmt"
	"testing"
)

// TestListBounds: the free list never holds more than its count or its
// bytes; full, it keeps the larger arrays and drops a smaller one
// offered to it; an array over the byte bound, or one only larger
// arrays could make room for, is dropped and the list left alone; Get
// hands out the smallest array that holds n and none for a length no
// array holds.
func TestListBounds(t *testing.T) {
	b := NewBudget(16 << 10)
	l := New[byte](4, b)
	expect := func(when string, want ...int) {
		t.Helper()
		got := l.Caps()
		sum := 0
		for _, c := range got {
			sum += c
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || int64(sum) != b.Bytes() {
			t.Fatalf("%s: free list %v (%d bytes counted), want %v", when, got, b.Bytes(), want)
		}
		if len(got) > 4 || b.Bytes() > 16<<10 {
			t.Fatalf("%s: %d arrays, %d bytes: over the bounds", when, len(got), b.Bytes())
		}
	}
	for _, c := range []int{1031, 1024, 1029, 1030, 1025, 1028, 1026} {
		l.Put(make([]byte, 100, c))
	}
	expect("count bound", 1028, 1029, 1030, 1031)
	l.Put(make([]byte, 0, 1000))
	expect("a smaller array offered to a full list", 1028, 1029, 1030, 1031)
	l.Put(make([]byte, 0, 6<<10))
	l.Put(make([]byte, 0, 6<<10))
	expect("larger arrays replace the smallest", 1030, 1031, 6<<10, 6<<10)
	l.Put(make([]byte, 0, 6<<10))
	expect("byte bound: no room without dropping an equal array", 1030, 1031, 6<<10, 6<<10)
	l.Put(make([]byte, 0, 17<<10))
	expect("an array over the byte bound", 1030, 1031, 6<<10, 6<<10)

	if s := l.Get(7<<10 + 1); s != nil {
		t.Fatalf("Get(7 KiB + 1) returned a %d B array", cap(s))
	}
	if s := l.Get(1031); cap(s) != 1031 || len(s) != 0 {
		t.Fatalf("Get(1031) = len %d cap %d, want the empty 1031 B array", len(s), cap(s))
	}
	expect("after Get(1031)", 1030, 6<<10, 6<<10)
	if s := l.Get(0); cap(s) != 1030 {
		t.Fatalf("Get(0) = cap %d, want the smallest, 1030", cap(s))
	}
	expect("after Get(0)", 6<<10, 6<<10)
	if s := l.Make(100); len(s) != 100 || cap(s) != 6<<10 {
		t.Fatalf("Make(100) = len %d cap %d, want a free 6 KiB array cut to 100", len(s), cap(s))
	}
	if s := l.Make(7 << 10); len(s) != 7<<10 || cap(s) != 7<<10 {
		t.Fatalf("Make(7 KiB) = len %d cap %d, want a new array", len(s), cap(s))
	}
	expect("after two Makes", 6<<10)
	b.Empty()
	expect("after Empty")
}

// TestSharedBudget: lists of different element types on one budget
// count bytes, not elements, and share the byte bound; a list whose
// budget another list has filled drops what it is offered.
func TestSharedBudget(t *testing.T) {
	b := NewBudget(64 << 10)
	words := New[uint64](4, b)
	halves := New[int32](4, b)
	words.Put(make([]uint64, 4<<10)) // 32 KiB
	halves.Put(make([]int32, 4<<10)) // 16 KiB
	if got := b.Bytes(); got != 48<<10 {
		t.Fatalf("budget counts %d bytes, want %d", got, 48<<10)
	}
	halves.Put(make([]int32, 8<<10)) // 32 KiB: drops the 16 KiB one to fit
	if got, caps := b.Bytes(), halves.Caps(); got != 64<<10 || fmt.Sprint(caps) != "[8192]" {
		t.Fatalf("budget %d bytes, int32 list %v; want 64 KiB and [8192]", got, caps)
	}
	words.Put(make([]uint64, 1<<10)) // no room, and nothing smaller to drop
	if caps := words.Caps(); fmt.Sprint(caps) != "[4096]" {
		t.Fatalf("uint64 list %v after a full budget, want [4096]", caps)
	}
	b.Empty()
	if b.Bytes() != 0 || len(words.Caps())+len(halves.Caps()) != 0 {
		t.Fatalf("Empty left %d bytes, %v and %v", b.Bytes(), words.Caps(), halves.Caps())
	}
}

// TestPoisonFillsWhatGoesBack: with Poison on, an array offered back is
// 0xA5 to its capacity, whether the list kept it or not.
func TestPoisonFillsWhatGoesBack(t *testing.T) {
	Poison(true)
	defer Poison(false)
	b := NewBudget(1 << 10)
	l := New[uint32](1, b)
	kept := make([]uint32, 3, 8)
	dropped := make([]uint32, 1<<10) // 4 KiB: over the budget
	l.Put(kept)
	l.Put(dropped)
	for _, s := range [][]uint32{kept[:8], dropped} {
		for i, v := range s {
			if v != 0xA5A5A5A5 {
				t.Fatalf("element %d of a %d-element array is %#x after Put, want 0xa5a5a5a5", i, len(s), v)
			}
		}
	}
	if got := l.Make(5); len(got) != 5 || got[4] != 0xA5A5A5A5 {
		t.Fatalf("Make(5) = %#x, want the kept, poisoned array", got)
	}
}
