package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"tevot/internal/workload"
)

// The wire format. One predict request evaluates one operating corner
// over a batch of consecutive operand pairs; cycle i applies pairs[i+1]
// after pairs[i], so len(pairs)-1 delays come back, plus an error
// verdict vector (and TER) per requested clock period — the paper's
// Eq. 2 reuse of one trained model across clock speeds.
//
//	POST /v1/predict
//	{
//	  "voltage": 0.81,
//	  "temperature": 45,
//	  "pairs": [{"a": 3735928559, "b": 195894762}, {"a": 1, "b": 2}],
//	  "clocks": [650, 700]
//	}
type predictRequest struct {
	Voltage     float64                `json:"voltage"`
	Temperature float64                `json:"temperature"`
	Pairs       []workload.OperandPair `json:"pairs"`
	Clocks      []float64              `json:"clocks,omitempty"`
}

type predictResponse struct {
	FU              string        `json:"fu"`
	ModelGeneration int64         `json:"model_generation"`
	Delays          []float64     `json:"delays"`
	Clocks          []clockResult `json:"clocks,omitempty"`
	Batch           *batchInfo    `json:"batch,omitempty"`
}

// batchInfo is the per-item timing breakdown of the coalesced flush
// that served the request: when it was admitted, when its batch
// flushed, how long the shared forest call took, and what the batch
// looked like. Clients use queue_us to see the latency price of
// coalescing and items/flush_reason to see how well traffic batches.
type batchInfo struct {
	QueuedAt    time.Time `json:"queued_at"`
	FlushedAt   time.Time `json:"flushed_at"`
	QueueUS     int64     `json:"queue_us"`
	InferenceUS int64     `json:"inference_us"`
	Items       int       `json:"items"`
	Rows        int       `json:"rows"`
	Reason      string    `json:"flush_reason"`
}

type clockResult struct {
	ClockPs float64 `json:"clock_ps"`
	Errors  []bool  `json:"errors"`
	TER     float64 `json:"ter"`
}

// validate enforces the input contract with messages precise enough for
// a client to fix the request. NaN/Inf cannot arrive through JSON
// numbers, but the checks keep the contract honest for any future
// decoder and catch semantic nonsense (negative voltage, zero clock).
func (r *predictRequest) validate(maxPairs, maxClocks int) error {
	if !isFinite(r.Voltage) || r.Voltage <= 0 {
		return fmt.Errorf("voltage must be a finite positive number of volts, got %v", r.Voltage)
	}
	if !isFinite(r.Temperature) {
		return fmt.Errorf("temperature must be a finite number of °C, got %v", r.Temperature)
	}
	if len(r.Pairs) < 2 {
		return fmt.Errorf("need at least 2 operand pairs (cycle i applies pairs[i+1] after pairs[i]), got %d", len(r.Pairs))
	}
	if len(r.Pairs) > maxPairs {
		return fmt.Errorf("batch of %d pairs exceeds the %d-pair cap; split the request", len(r.Pairs), maxPairs)
	}
	if len(r.Clocks) > maxClocks {
		return fmt.Errorf("%d clock periods exceeds the cap of %d", len(r.Clocks), maxClocks)
	}
	for i, c := range r.Clocks {
		if !isFinite(c) || c <= 0 {
			return fmt.Errorf("clocks[%d] must be a finite positive period in ps, got %v", i, c)
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// apiError is the structured error envelope every non-2xx answer
// carries: a stable machine-readable code plus a human message.
type apiError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// WriteError writes the structured error envelope (exported for the
// coordinator and any other tevot HTTP surface).
func WriteError(w http.ResponseWriter, status int, code, message string) {
	var e apiError
	e.Error.Code = code
	e.Error.Message = message
	WriteJSON(w, status, e)
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past WriteHeader have nowhere to go; the client
	// sees a truncated body and its decoder reports it.
	_ = json.NewEncoder(w).Encode(v)
}
