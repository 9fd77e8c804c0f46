package cache

import "reflect"

// sizeOf estimates the heap bytes a memoized kernel value keeps alive:
// everything reachable through its pointers, slices (at capacity),
// strings and maps, each pointed-to object and slice array counted once.
// It is what a value adds to its entry's weight. Map storage is an
// estimate (mapBytes); channels, functions and unsafe pointers count as
// the word that holds them.
func sizeOf(v any) int64 {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return 0
	}
	w := walker{seen: map[uintptr]bool{}}
	n := w.refs(rv)
	if rv.Kind() != reflect.Pointer {
		n += int64(rv.Type().Size()) // boxed into the interface
	}
	return n
}

// walker sums what values reference, remembering which objects it has
// already counted.
type walker struct{ seen map[uintptr]bool }

// first reports whether the object at p is seen for the first time.
func (w *walker) first(p uintptr) bool {
	if p == 0 || w.seen[p] {
		return false
	}
	w.seen[p] = true
	return true
}

// refs returns the heap bytes v references, not counting v itself.
func (w *walker) refs(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || !w.first(v.Pointer()) {
			return 0
		}
		return int64(v.Type().Elem().Size()) + w.refs(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		e := v.Elem()
		if e.Kind() == reflect.Pointer {
			return w.refs(e)
		}
		return int64(e.Type().Size()) + w.refs(e)
	case reflect.String:
		return int64(v.Len())
	case reflect.Slice:
		if v.Cap() == 0 || !w.first(v.Pointer()) {
			return 0
		}
		return int64(v.Cap())*int64(v.Type().Elem().Size()) + w.elems(v)
	case reflect.Array:
		return w.elems(v)
	case reflect.Struct:
		var n int64
		for i := 0; i < v.NumField(); i++ {
			if hasPointers(v.Type().Field(i).Type) {
				n += w.refs(v.Field(i))
			}
		}
		return n
	case reflect.Map:
		if v.IsNil() || !w.first(v.Pointer()) {
			return 0
		}
		t := v.Type()
		n := mapBytes(t, v.Len())
		if hasPointers(t.Key()) || hasPointers(t.Elem()) {
			for it := v.MapRange(); it.Next(); {
				n += w.refs(it.Key()) + w.refs(it.Value())
			}
		}
		return n
	}
	return 0
}

// elems sums what the elements of a slice or array reference.
func (w *walker) elems(v reflect.Value) int64 {
	var n int64
	if hasPointers(v.Type().Elem()) {
		for i := 0; i < v.Len(); i++ {
			n += w.refs(v.Index(i))
		}
	}
	return n
}

// mapBytes estimates a map's own storage: slots for n entries at a 7/8
// load factor, rounded up to a power of two and a group of eight, one
// control byte per slot, and the map header.
func mapBytes(t reflect.Type, n int) int64 {
	slots := 8
	for slots*7/8 < n {
		slots *= 2
	}
	slot := (t.Key().Size() + t.Elem().Size() + 7) &^ 7
	return 48 + int64(slots)*int64(slot+1)
}

// hasPointers reports whether a value of type t can reference memory
// outside itself.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.String, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
