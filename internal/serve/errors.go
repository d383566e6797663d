package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/engine"
)

// The typed error contract of the serving layer. Handlers map these to
// HTTP statuses with HTTPStatus/WriteError:
//
//	ErrShed          → 429 Too Many Requests (+ Retry-After)
//	ErrQueueTimeout  → 503 Service Unavailable (+ Retry-After)
//	ErrResultBudget  → 413 Content Too Large
//	DeadlineExceeded → 504 Gateway Timeout (query ran out of time)
//	Canceled         → 499 (client closed request; nothing useful to say)
//	*engine.PanicError → 500 Internal Server Error
//	anything else    → 400 Bad Request (semantic errors: bad column, …)
var (
	// ErrShed reports that both the execution slots and the wait queue
	// were full at arrival; the query was rejected without queueing.
	ErrShed = errors.New("serve: overloaded, try again later")
	// ErrQueueTimeout reports that the query's deadline expired while it
	// was still waiting for an execution slot — congestion, not a slow
	// query. It wraps context.DeadlineExceeded.
	ErrQueueTimeout = errors.New("serve: timed out waiting for an execution slot")
	// ErrResultBudget reports a query whose requested result size
	// exceeds the per-query budget.
	ErrResultBudget = errors.New("serve: result budget exceeded")
)

// StatusClientClosedRequest is the conventional (nginx) status for a
// request abandoned by the client; no standard name exists in net/http.
const StatusClientClosedRequest = 499

// HTTPStatus maps a scheduler error to its HTTP status code per the
// typed error contract above; nil maps to 200.
func HTTPStatus(err error) int {
	var pe *engine.PanicError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrQueueTimeout):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrResultBudget):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	default:
		return http.StatusBadRequest
	}
}

// WriteError writes err as its mapped HTTP response, attaching the
// DefaultRetryAfter hint to the overload statuses (429/503). A 499
// client disconnect is still "written" for uniformity; the socket is
// gone.
func WriteError(w http.ResponseWriter, err error) {
	code := HTTPStatus(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int(DefaultRetryAfter/time.Second)))
	}
	http.Error(w, err.Error(), code)
}

// recoverWriter tracks whether the wrapped handler has started the
// response, so the panic recovery path can tell "nothing sent yet —
// write a clean 500" apart from "headers (or body) already out — a
// second WriteHeader would be a protocol violation net/http only
// logs". Flush passes through so streaming handlers keep working
// behind the wrapper.
type recoverWriter struct {
	http.ResponseWriter
	wrote bool
}

func (rw *recoverWriter) WriteHeader(code int) {
	rw.wrote = true
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *recoverWriter) Write(b []byte) (int, error) {
	rw.wrote = true
	return rw.ResponseWriter.Write(b)
}

func (rw *recoverWriter) Flush() {
	if f, ok := rw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Recovered wraps an HTTP handler so a panic anywhere in it — a render
// bug, a malformed-parameter crash — becomes a 500 for that request,
// counted in the scheduler's panic stats, instead of an aborted
// connection (net/http's default) or a dead process. The 500 goes
// through WriteError (the one typed-error path every handler response
// takes) and only when the handler has not already written: a panic
// after the response started must not stomp a second status line onto
// a stream the client is half-way through.
func (s *Scheduler) Recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rw := &recoverWriter{ResponseWriter: w}
		defer func() {
			if pe := engine.CapturePanic(recover()); pe != nil {
				s.panics.Add(1)
				if !rw.wrote {
					WriteError(rw, pe)
				}
			}
		}()
		h(rw, r)
	}
}
