package cache

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestResultIsRegisterSized holds Result to the shape the compiler keeps
// in registers: at most 4 fields in Result and in every struct inside it,
// and at most 4 words in all. A Result past either limit is returned
// through stack memory, written with byte and word stores and copied out
// with 16-byte loads that overlap those stores; the CPU cannot forward
// the stored bytes to such a load, so every Access, and every hierarchy
// level that passes a Result on, stalls on the copy (DESIGN.md §17).
func TestResultIsRegisterSized(t *testing.T) {
	const maxFields, maxBytes = 4, 4 * unsafe.Sizeof(uintptr(0))
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		if typ.NumField() > maxFields {
			t.Errorf("%s has %d fields, more than %d: the compiler no longer keeps Result in registers", typ, typ.NumField(), maxFields)
		}
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i).Type; f.Kind() == reflect.Struct {
				walk(f)
			}
		}
	}
	walk(reflect.TypeOf(Result{}))
	if size := unsafe.Sizeof(Result{}); size > maxBytes {
		t.Errorf("Result is %d bytes, more than %d: the compiler no longer keeps it in registers", size, maxBytes)
	}
}
