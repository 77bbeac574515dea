package runner

import (
	"context"
	"errors"
	"fmt"
)

// Class is the runner's failure taxonomy: it decides whether a failed
// attempt is worth retrying.
type Class int

const (
	// Permanent failures are deterministic — retrying the same cell with
	// the same inputs will fail the same way (bad configuration, a panic
	// in the simulation kernel, a validation error).
	Permanent Class = iota
	// Transient failures may succeed on a later attempt (resource
	// pressure, a deadline missed under load, an injected test fault).
	Transient
)

func (c Class) String() string {
	if c == Transient {
		return "transient"
	}
	return "permanent"
}

// TransientError wraps an error to mark it as retryable. Fault injection
// and any task that knows its failure is load-dependent use this.
type TransientError struct{ Err error }

func (e *TransientError) Error() string { return "transient: " + e.Err.Error() }
func (e *TransientError) Unwrap() error { return e.Err }

// MarkTransient wraps err so DefaultClassify treats it as retryable.
// A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// PanicError is a panic recovered inside a task, converted into a value
// so one bad cell cannot take down the whole sweep process.
type PanicError struct {
	Value string // the panic value, stringified
	Stack string // goroutine stack at recovery
}

func (e *PanicError) Error() string { return "task panicked: " + e.Value }

// CellError records the final failure of one cell after all attempts.
type CellError struct {
	Key      string
	Attempts int
	Err      error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s failed after %d attempt(s): %v", e.Key, e.Attempts, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// DefaultClassify is the runner's retry policy:
//
//   - TransientError and deadline overruns are Transient (the next
//     attempt may land on a less loaded machine or a longer budget);
//   - cancellation, panics, and everything else are Permanent (the sweep
//     is shutting down, or the failure is deterministic).
func DefaultClassify(err error) Class {
	var te *TransientError
	if errors.As(err, &te) {
		return Transient
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return Transient
	}
	return Permanent
}
