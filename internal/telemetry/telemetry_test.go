package telemetry

import (
	"reflect"
	"testing"
)

// requireNilSafe calls every method of nil, a nil *Tracer, *Histogram or
// *Registry (telemetry off), and requires that none panics and that each
// returns zero values or pointers to zero values. A pointer argument is a
// pointer to a zero value, as callers pass (a nil *Snapshot makes
// SnapshotInto panic whether telemetry is on or off); every other
// argument is its zero value. Being behavioural, the check holds for a
// guard of any shape, and for a method added later.
func requireNilSafe(t *testing.T, nilRecv any) {
	t.Helper()
	v := reflect.ValueOf(nilRecv)
	if v.Kind() != reflect.Pointer || !v.IsNil() || v.NumMethod() == 0 {
		t.Fatalf("%T: want a nil pointer to a type with methods", nilRecv)
	}
	for i := 0; i < v.NumMethod(); i++ {
		name := v.Type().Method(i).Name
		m := v.Method(i)
		args := make([]reflect.Value, m.Type().NumIn())
		for j := range args {
			at := m.Type().In(j)
			if at.Kind() == reflect.Pointer {
				args[j] = reflect.New(at.Elem())
			} else {
				args[j] = reflect.Zero(at)
			}
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("(%T).%s panics on a nil receiver: %v", nilRecv, name, p)
				}
			}()
			for k, out := range m.Call(args) {
				if !out.IsZero() && (out.Kind() != reflect.Pointer || !out.Elem().IsZero()) {
					t.Errorf("(%T).%s result %d = %v on a nil receiver, want zero", nilRecv, name, k, out)
				}
			}
		}()
	}
}
