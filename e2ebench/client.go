package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"time"
)

// client talks to one shapleyd process over keep-alive loopback HTTP.
type client struct {
	base string
	hc   *http.Client
}

// newClient returns a client holding at most conns connections.
func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and returns the status and the whole body.
func (c *client) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// expect sends one request and fails unless the status is want.
func (c *client) expect(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	status, out, err := c.call(ctx, method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(out))
	}
	return out, nil
}

// valueJSON is one Shapley value on the wire.
type valueJSON struct {
	Fact    string `json:"fact"`
	Shapley string `json:"shapley"`
}

// spanJSON is one node of a span tree that ?trace=1 returns.
type spanJSON struct {
	Name       string      `json:"name"`
	DurationNS int64       `json:"duration_ns"`
	Count      int64       `json:"count"`
	Children   []*spanJSON `json:"children"`
}

// traceJSON is the trace a ?trace=1 response carries.
type traceJSON struct {
	Root *spanJSON `json:"root"`
}

// shapleyResp is the body of a single-fact shapley response.
type shapleyResp struct {
	Version int64      `json:"version"`
	Cache   string     `json:"cache"`
	Value   *valueJSON `json:"value"`
	Trace   *traceJSON `json:"trace"`
}

// read sends one single-fact request and returns the decoded response.
func (c *client) read(ctx context.Context, path string, body []byte) (*shapleyResp, error) {
	out, err := c.expect(ctx, http.MethodPost, path, body, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var r shapleyResp
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("decode shapley response: %w", err)
	}
	if r.Value == nil {
		return nil, fmt.Errorf("shapley response without a value: %s", out)
	}
	return &r, nil
}

// patchResp is the body of a PATCH response.
type patchResp struct {
	Version      int64 `json:"version"`
	PlansPatched int   `json:"plans_patched"`
	PlansDropped int   `json:"plans_dropped"`
}

// stream is a streamed mode=all answer, read to its trailer.
type stream struct {
	cache  string
	values []valueJSON
	sum    *big.Rat
	trace  *traceJSON
}

// streamAll sends a mode=all request with NDJSON accepted, reads the
// stream to its trailer and sums the values exactly.
func (c *client) streamAll(ctx context.Context, path string, body []byte) (*stream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("mode=all: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("mode=all: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	out := &stream{sum: new(big.Rat)}
	var head struct {
		Cache string `json:"cache"`
	}
	if !sc.Scan() || json.Unmarshal(sc.Bytes(), &head) != nil {
		return nil, fmt.Errorf("mode=all: no header line")
	}
	out.cache = head.Cache
	for sc.Scan() {
		var line struct {
			valueJSON
			Done  bool       `json:"done"`
			Count int        `json:"count"`
			Error string     `json:"error"`
			Trace *traceJSON `json:"trace"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("mode=all: %w", err)
		}
		switch {
		case line.Error != "":
			return nil, fmt.Errorf("mode=all: %s", line.Error)
		case line.Done:
			if line.Count != len(out.values) {
				return nil, fmt.Errorf("mode=all: trailer counts %d values, stream had %d", line.Count, len(out.values))
			}
			out.trace = line.Trace
			return out, nil
		}
		v, ok := new(big.Rat).SetString(line.Shapley)
		if !ok {
			return nil, fmt.Errorf("mode=all: bad value %q", line.Shapley)
		}
		out.sum.Add(out.sum, v)
		out.values = append(out.values, line.valueJSON)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mode=all: %w", err)
	}
	return nil, fmt.Errorf("mode=all: stream ended without a trailer")
}

// scrape reads the process's /metrics.
func (c *client) scrape(ctx context.Context) (series, error) {
	out, err := c.expect(ctx, http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return parseMetrics(bytes.NewReader(out))
}
