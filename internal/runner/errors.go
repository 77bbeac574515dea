package runner

import "fmt"

// PanicError is a panic recovered inside a task, converted into a value
// so one bad cell cannot take down the whole sweep process.
type PanicError struct {
	Value string // the panic value, stringified
	Stack string // goroutine stack at recovery
}

func (e *PanicError) Error() string { return "task panicked: " + e.Value }

// CellError records the failure of one cell.
type CellError struct {
	Key string
	Err error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s failed: %v", e.Key, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }
