package engine

import (
	"fmt"
	"runtime/debug"
)

// PanicError wraps a panic recovered at an execution boundary — a leaf
// worker, a partition's Map transform, a replicated-attempt goroutine, a
// cluster request handler, or the serving scheduler — so one query's bug surfaces as that query's
// error instead of taking down the process (or, on a worker, the whole
// leaf pool).
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error. The stack is kept out of the message (it
// crosses the wire and HTTP responses); loggers can access it directly.
func (e *PanicError) Error() string {
	return fmt.Sprintf("recovered panic: %v", e.Value)
}

// CapturePanic converts a recover() value into a *PanicError with the
// current stack; a nil value (no panic in flight) returns nil. Use as
//
//	defer func() {
//		if pe := engine.CapturePanic(recover()); pe != nil { ... }
//	}()
func CapturePanic(r any) *PanicError {
	if r == nil {
		return nil
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}
