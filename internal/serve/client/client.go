// Package serveclient is the typed HTTP client of the mpdata-serve API: it
// submits job specs, polls status, streams SSE progress events and scrapes
// the metrics endpoint. cmd/mpdata-load drives a server with it; tests and
// scripts can reuse it for end-to-end checks.
package serveclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"islands/internal/serve"
)

// Client talks to one mpdata-serve instance.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport (nil = a client with a 2-minute timeout).
	HTTP *http.Client
}

// New builds a client for a server base URL.
func New(base string) *Client {
	return &Client{
		Base: strings.TrimRight(base, "/"),
		HTTP: &http.Client{Timeout: 2 * time.Minute},
	}
}

// APIError is a non-2xx response decoded from the server's error envelope.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's backoff hint (429/503), if any.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve API %d: %s", e.StatusCode, e.Message)
}

// IsRetryable reports whether the request was rejected by admission control
// or drain (the client should back off and retry).
func (e *APIError) IsRetryable() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode == http.StatusServiceUnavailable
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 2 * time.Minute}
}

// do runs a request and decodes a JSON body (or an error envelope).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		apiErr := &APIError{StatusCode: resp.StatusCode}
		var env struct {
			Error string `json:"error"`
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &env) == nil && env.Error != "" {
			apiErr.Message = env.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(data))
		}
		apiErr.RetryAfter = retryAfter(resp.Header.Get("Retry-After"))
		return apiErr
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// maxDuration is the longest time.Duration: a backoff hint saturates here
// instead of wrapping negative.
const maxDuration = time.Duration(math.MaxInt64)

// retryAfter reads a Retry-After header given in delay-seconds (the form the
// server sends). A count of seconds too large for a time.Duration saturates
// at maxDuration; an empty, malformed or negative value is no hint (0).
func retryAfter(h string) time.Duration {
	secs, err := strconv.ParseUint(h, 10, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return 0
	}
	if err != nil || secs > uint64(maxDuration/time.Second) {
		return maxDuration
	}
	return time.Duration(secs) * time.Second
}

// Submit posts a job spec and returns the accepted job's status.
func (c *Client) Submit(ctx context.Context, spec serve.Spec) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Status fetches a job's status and queue position.
func (c *Client) Status(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Result fetches a finished job's status+result (409 while running).
func (c *Client) Result(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &st)
	return st, err
}

// Cancel requests a job's cancellation.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, nil)
}

// Wait polls a job until it reaches a terminal state (or ctx expires).
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (serve.JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// Events streams the job's SSE progress, invoking fn for every event until
// the stream ends (terminal event), fn returns false, or ctx expires.
func (c *Client) Events(ctx context.Context, id string, fn func(serve.Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	// SSE streams outlive the default request timeout: use a transport
	// without one (the caller bounds the stream through ctx).
	hc := &http.Client{Transport: c.httpClient().Transport}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &APIError{StatusCode: resp.StatusCode, Message: "events stream refused"}
	}
	sc := bufio.NewScanner(resp.Body)
	// The scanner starts at its small default and grows on demand: most
	// events are ~100 bytes, a "done" carrying a profiled result a few KiB,
	// and one follow is opened per routed job.
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("serveclient: bad event payload: %w", err)
		}
		if !fn(ev) {
			return nil
		}
		if ev.Type == "done" {
			// The stream ends after "done": read on to its EOF so the
			// transport can reuse the connection for the next follow.
			for sc.Scan() {
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// Healthz probes the health endpoint (nil = serving).
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Stats fetches the replica's load/health snapshot (GET /v1/stats) — the
// cheap JSON probe the fleet router polls for membership and work-stealing
// decisions.
func (c *Client) Stats(ctx context.Context) (serve.ReplicaStats, error) {
	var st serve.ReplicaStats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Metrics fetches the raw text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	return string(data), nil
}

// MetricValue extracts one sample's value from a text exposition (exact
// series name match, labels included), e.g. MetricValue(m,
// "serve_jobs_failed_total"). Returns false when the series is absent.
func MetricValue(exposition, series string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == series {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}
