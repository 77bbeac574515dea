package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"tevot/internal/backoff"
	"tevot/internal/obs"
)

// Client is the retrying JSON client workers use to talk to the
// coordinator. Transport errors and 5xx/429 responses are retried with
// the shared seeded-jitter backoff (internal/backoff), honoring
// Retry-After when the server sends one; 4xx responses are protocol
// answers, surfaced as typed errors, never retried. All waits respect
// ctx, so a worker shutting down never blocks on a backoff sleep.
type Client struct {
	base    string
	hc      *http.Client
	policy  backoff.Policy
	retries int
}

// Typed protocol errors the worker's control flow branches on.
var (
	// ErrLeaseGone: the coordinator expired (and possibly re-issued) the
	// lease; the worker must abandon the cell.
	ErrLeaseGone = errors.New("dist: lease gone")
	// ErrRunAborted: the run hit a divergence; the worker should exit.
	ErrRunAborted = errors.New("dist: run aborted")
)

// ClientOptions tune a Client beyond its defaults. The zero value keeps
// every default; fields are applied only when set.
type ClientOptions struct {
	// Transport replaces http.DefaultTransport — the injection point for
	// chaos.Transport and for custom TLS/proxy setups.
	Transport http.RoundTripper
	// Timeout bounds one wire attempt (default 30s).
	Timeout time.Duration
	// Retries is the per-RPC retry budget (default 8; negative means 0).
	Retries int
}

// NewClient builds a client for the coordinator at base
// (http://host:port). seed keys the retry jitter so concurrent workers
// decorrelate their retry storms.
func NewClient(base string, seed int64) *Client {
	return NewClientWith(base, seed, ClientOptions{})
}

// NewClientWith is NewClient with explicit options.
func NewClientWith(base string, seed int64, opts ClientOptions) *Client {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	retries := opts.Retries
	if retries == 0 {
		retries = 8
	} else if retries < 0 {
		retries = 0
	}
	return &Client{
		base: base,
		hc:   &http.Client{Timeout: timeout, Transport: opts.Transport},
		policy: backoff.Policy{
			Base: 100 * time.Millisecond,
			Max:  5 * time.Second,
			Seed: seed,
		},
		retries: retries,
	}
}

// apiErrorBody mirrors internal/serve's error envelope.
type apiErrorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// httpStatusError is a non-2xx answer that is not a typed protocol
// error (used for retry classification and final reporting).
type httpStatusError struct {
	status int
	code   string
	msg    string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("dist: http %d (%s): %s", e.status, e.code, e.msg)
}

func retryable(err error) bool {
	var se *httpStatusError
	if errors.As(err, &se) {
		return se.status == http.StatusTooManyRequests || se.status >= 500
	}
	// Anything that never produced an HTTP status (dial refused, reset,
	// coordinator restarting) is worth retrying.
	return !errors.Is(err, ErrLeaseGone) && !errors.Is(err, ErrRunAborted) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// post sends one JSON request with retries; resp may be nil.
func (c *Client) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var last error
	for attempt := 0; ; attempt++ {
		var retryAfter time.Duration
		retryAfter, last = c.once(ctx, path, body, resp)
		if last == nil || !retryable(last) || attempt >= c.retries {
			return last
		}
		delay := c.policy.Delay(path, attempt)
		// A server-supplied Retry-After may stretch the wait, but only up
		// to the policy max: the header is unauthenticated input, and a
		// forged 429 must not park a worker for hours.
		if ra := c.policy.Cap(retryAfter); ra > delay {
			delay = ra
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
}

// once performs a single HTTP exchange, returning any server-suggested
// Retry-After alongside the error.
func (c *Client) once(ctx context.Context, path string, body []byte, resp any) (time.Duration, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer hresp.Body.Close()

	if hresp.StatusCode >= 200 && hresp.StatusCode < 300 {
		if resp == nil {
			io.Copy(io.Discard, hresp.Body)
			return 0, nil
		}
		return 0, json.NewDecoder(hresp.Body).Decode(resp)
	}

	var e apiErrorBody
	json.NewDecoder(io.LimitReader(hresp.Body, 64<<10)).Decode(&e)
	switch {
	case hresp.StatusCode == http.StatusGone:
		return 0, ErrLeaseGone
	case hresp.StatusCode == http.StatusConflict:
		return 0, fmt.Errorf("%w: %s: %s", ErrRunAborted, e.Error.Code, e.Error.Message)
	}
	ra, _ := backoff.ParseRetryAfter(hresp.Header.Get("Retry-After"), time.Now)
	return ra, &httpStatusError{status: hresp.StatusCode, code: e.Error.Code, msg: e.Error.Message}
}

// Register announces the worker and returns the sweep spec.
func (c *Client) Register(ctx context.Context, worker string) (Spec, int, error) {
	var resp registerResponse
	err := c.post(ctx, "/v1/register", registerRequest{Worker: worker, Version: protocolVersion}, &resp)
	return resp.Spec, resp.ReleasedLeases, err
}

// Lease asks for work.
func (c *Client) Lease(ctx context.Context, worker string) (leaseResponse, error) {
	var resp leaseResponse
	err := c.post(ctx, "/v1/lease", leaseRequest{Worker: worker}, &resp)
	return resp, err
}

// Renew extends a held lease; ErrLeaseGone means abandon the cell.
// metrics, if non-nil, piggybacks the worker's registry snapshot for
// the coordinator's fleet aggregation.
func (c *Client) Renew(ctx context.Context, worker, leaseID string, metrics *obs.RegistrySnapshot) error {
	return c.post(ctx, "/v1/renew",
		renewRequest{Worker: worker, LeaseID: leaseID, Metrics: metrics}, nil)
}

// Report delivers a cell result; duplicate=true means the coordinator
// already had byte-identical bytes for the cell.
func (c *Client) Report(ctx context.Context, req resultRequest) (duplicate bool, err error) {
	var resp resultResponse
	if err := c.post(ctx, "/v1/result", req, &resp); err != nil {
		return false, err
	}
	return resp.Status == resultDuplicate, nil
}
