package obs

import (
	"reflect"
	"testing"
)

// TestNilReceiversSurvive pins the package's nil-receiver contract:
// instrumented code holds these four types as possibly-nil pointers and calls
// them unchecked, so every exported method must return — not panic — on a nil
// receiver. Arguments are zero values, except that pointers point at one, so
// a nil argument's early return cannot stand in for the receiver's guard. The
// methods are found by reflection: a new exported method without a guard
// fails here by name.
func TestNilReceiversSurvive(t *testing.T) {
	for _, recv := range []any{(*Histogram)(nil), (*PipelineObserver)(nil), (*Tracer)(nil), (*Journal)(nil)} {
		v := reflect.ValueOf(recv)
		for i := 0; i < v.NumMethod(); i++ {
			m := v.Method(i)
			t.Run(v.Type().Elem().Name()+"."+v.Type().Method(i).Name, func(t *testing.T) {
				n := m.Type().NumIn()
				if m.Type().IsVariadic() {
					n-- // leave the variadic tail empty
				}
				args := make([]reflect.Value, n)
				for a := range args {
					if in := m.Type().In(a); in.Kind() == reflect.Pointer {
						args[a] = reflect.New(in.Elem())
					} else {
						args[a] = reflect.Zero(in)
					}
				}
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("panicked on a nil receiver: %v", r)
					}
				}()
				m.Call(args)
			})
		}
	}
}
