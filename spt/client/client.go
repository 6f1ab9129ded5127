package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks to one sptd daemon. The zero value is not usable; construct
// with New. Client is safe for concurrent use.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8750"). httpClient may be nil for http.DefaultClient.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// post submits body to path and decodes a 2xx JSON response into out.
// Non-2xx responses come back as *APIError.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

// get fetches path and decodes a 2xx JSON response into out.
func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		// A truncated or reset body is a transport failure just like a failed
		// dial: wrap (not replace) so IsRetryable can classify it.
		return fmt.Errorf("client: read response body: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		ae := &APIError{StatusCode: resp.StatusCode}
		_ = json.Unmarshal(data, &ae.Body)
		if ae.Body.Error == "" {
			ae.Body.Error = strings.TrimSpace(string(data))
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if n, err := strconv.Atoi(ra); err == nil {
				ae.RetryAfterSeconds = n
			}
		}
		return ae
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// Compile submits a compile job. For synchronous requests the full response
// is returned; for async requests only JobID is populated — poll with Job
// or Wait.
func (c *Client) Compile(ctx context.Context, req CompileRequest) (*CompileResponse, error) {
	var out CompileResponse
	if err := c.post(ctx, "/v1/compile", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Simulate submits a simulate job (baseline + SPT evaluation).
func (c *Client) Simulate(ctx context.Context, req SimulateRequest) (*SimulateResponse, error) {
	var out SimulateResponse
	if err := c.post(ctx, "/v1/simulate", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sweep submits an ablation sweep job.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	var out SweepResponse
	if err := c.post(ctx, "/v1/sweep", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches the current status of an async job.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.get(ctx, "/v1/jobs/"+id, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Wait polls an async job until it reaches StateDone (or ctx ends),
// sleeping poll between requests (0 means 50ms).
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		js, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if js.State == StateDone {
			return js, nil
		}
		select {
		case <-ctx.Done():
			return js, ctx.Err()
		case <-t.C:
		}
	}
}

// ClusterView fetches GET /v1/cluster — the node's membership table and
// replication health. Only clustered daemons serve it; standalone nodes
// answer 404.
func (c *Client) ClusterView(ctx context.Context) (*ClusterView, error) {
	var out ClusterView
	if err := c.get(ctx, "/v1/cluster", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches /readyz. A node that is not ready answers 503, which
// comes back as an *APIError that IsBackpressure classifies as retryable.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var out Health
	if err := c.get(ctx, "/readyz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the raw /metrics exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return "", fmt.Errorf("client: read response body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Body: ErrorBody{Error: strings.TrimSpace(string(data))}}
	}
	return string(data), nil
}

// MetricValue extracts one sample from Prometheus exposition text: the
// value of the first line whose name (and label set, when the name carries
// one, e.g. `sptd_jobs_total{outcome="ok"}`) matches exactly. ok is false
// when the metric is absent.
func MetricValue(metrics, name string) (v float64, ok bool) {
	for _, line := range strings.Split(metrics, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || fields[0] != name {
			continue
		}
		f, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, false
		}
		return f, true
	}
	return 0, false
}
