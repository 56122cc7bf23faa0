package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"simaibench/internal/des"
	"simaibench/internal/scenario"
	"simaibench/internal/sweep"
)

// Every failure the server can produce is a typed JSON body with a
// machine-readable kind, so a load balancer, a retrying client and a
// human reading logs all classify the same way. The kinds form the
// server's error vocabulary; the structured errors the run guardrails
// produce (des.BudgetExceeded, sweep.CellError) map
// onto it by errors.As/Is, never by string matching.

// The machine-readable error kinds of the serving API.
const (
	// KindBadRequest: the request body failed to parse or validate.
	KindBadRequest = "bad_request"
	// KindUnknownScenario: the requested scenario id is not registered.
	KindUnknownScenario = "unknown_scenario"
	// KindMethodNotAllowed: wrong HTTP method for the endpoint.
	KindMethodNotAllowed = "method_not_allowed"
	// KindOverloaded: the admission queue is full — shed with 429 and a
	// Retry-After hint rather than queueing unboundedly.
	KindOverloaded = "overloaded"
	// KindShuttingDown: the server is draining and admits no new runs.
	KindShuttingDown = "shutting_down"
	// KindBudgetExceeded: the run tripped its DES event budget
	// (des.BudgetExceeded).
	KindBudgetExceeded = "budget_exceeded"
	// KindPanic: the scenario panicked; the panic was isolated by the
	// hardened runner and the process survived (sweep.PanicError).
	KindPanic = "panic"
	// KindTimeout: the run was abandoned at its deadline
	// (sweep.ErrCellTimeout or a context deadline).
	KindTimeout = "timeout"
	// KindCanceled: the run was cancelled by server shutdown.
	KindCanceled = "canceled"
	// KindInternal: any other run failure.
	KindInternal = "internal"
)

// APIError is the structured error of one request: the HTTP status it
// was (or should be) served with, a machine-readable kind, and a
// human-readable message. RetryAfterS > 0 advises when to retry
// (overload shedding and shutdown both set it).
type APIError struct {
	// Status is the HTTP status code.
	Status int `json:"status"`
	// Kind is the machine-readable failure class (Kind* constants).
	Kind string `json:"kind"`
	// Message is the human-readable diagnosis.
	Message string `json:"message"`
	// RetryAfterS advises the client when a retry may succeed (seconds,
	// 0 = no advice).
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// Error renders the kind and message.
func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Kind, e.Message) }

// errorBody is the JSON envelope every error response uses.
type errorBody struct {
	Error *APIError `json:"error"`
}

// writeError serializes e as the typed JSON error body, setting the
// Retry-After header when e advises one.
func writeError(w http.ResponseWriter, e *APIError) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfterS > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(e.RetryAfterS+0.999)))
	}
	w.WriteHeader(e.Status)
	body, err := json.Marshal(errorBody{Error: e})
	if err != nil { // cannot happen for APIError; keep the contract anyway
		body = []byte(`{"error":{"status":500,"kind":"internal","message":"error encoding failed"}}`)
	}
	w.Write(append(body, '\n'))
}

// classifyRunError maps a run failure onto the typed error vocabulary.
// The hardened runner wraps scenario failures in *sweep.CellError, so
// classification unwraps with errors.As/Is through the whole chain:
// budget trips, panics and timeouts each keep their structured
// diagnosis in the message.
func classifyRunError(err error) *APIError {
	var be *des.BudgetExceeded
	if errors.As(err, &be) {
		return &APIError{Status: http.StatusUnprocessableEntity, Kind: KindBudgetExceeded, Message: be.Error()}
	}
	var pe *sweep.PanicError
	if errors.As(err, &pe) {
		return &APIError{Status: http.StatusInternalServerError, Kind: KindPanic, Message: err.Error()}
	}
	if errors.Is(err, sweep.ErrCellTimeout) || errors.Is(err, context.DeadlineExceeded) {
		return &APIError{Status: http.StatusGatewayTimeout, Kind: KindTimeout, Message: err.Error()}
	}
	if errors.Is(err, context.Canceled) {
		return &APIError{Status: http.StatusServiceUnavailable, Kind: KindCanceled,
			Message: "run cancelled by server shutdown: " + err.Error(), RetryAfterS: 1}
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae
	}
	return &APIError{Status: http.StatusInternalServerError, Kind: KindInternal, Message: err.Error()}
}

// cellFailureKind is the error kind of one failed cell inside a 200
// response: the typed error the scenario layer kept on the record goes
// through the same chain as a whole-request failure. A record without
// one (built by hand rather than by scenario.FailuresFrom) is internal.
func cellFailureKind(f scenario.CellFailure) string {
	if f.Err == nil {
		return KindInternal
	}
	return classifyRunError(f.Err).Kind
}
