package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"simaibench/internal/scenario"
)

// The wire vocabulary of the /v1 API plus a minimal typed client — what
// library users embed instead of hand-rolling HTTP.

// RunRequest is the body of POST /v1/run: which scenario to run, with
// what parameters, under what identity seed and deadline.
type RunRequest struct {
	// Scenario is the registered scenario id (see GET /v1/scenarios).
	Scenario string `json:"scenario"`
	// Params are the scenario parameters; zero fields fall back to the
	// scenario's paper defaults, exactly as the CLI's flags do.
	Params scenario.Params `json:"params,omitempty"`
	// Seed must be 0: no scenario reads a seed, so the server refuses a
	// request that sets one (400 naming "seed") instead of caching the
	// same result under a second key. To make distinct cells, vary a
	// knob the scenario reads (ScenarioInfo.Knobs).
	Seed int64 `json:"seed,omitempty"`
	// TimeoutS bounds the whole run in wall-clock seconds (0 = the
	// server's default). It propagates into the run context, the
	// hardened runner's deadline and Params.TimeoutS.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// RunResponse is the success body of POST /v1/run. Equal keys serve
// byte-identical bodies whether computed or cached; the cache
// disposition travels in the X-Cache header (hit | miss | dedup), not
// the body.
type RunResponse struct {
	// Key is the content address of this result: the canonical hash of
	// the scenario and its effective params — the knobs it declares plus
	// the server-filled guardrails, merged with its defaults.
	Key string `json:"key"`
	// Scenario echoes the scenario id.
	Scenario string `json:"scenario"`
	// Result is the structured scenario outcome — the same record the
	// CLI's -format json emits.
	Result *scenario.Result `json:"result"`
	// FailureKinds annotates Result.Failures (same order) with
	// machine-readable kinds, so clients classify per-cell guardrail
	// failures without parsing rendered error text.
	FailureKinds []string `json:"failure_kinds,omitempty"`
}

// ScenarioInfo is one entry of GET /v1/scenarios.
type ScenarioInfo struct {
	// Name is the stable scenario id.
	Name string `json:"name"`
	// Description is the one-line summary.
	Description string `json:"description"`
	// Defaults are the paper-default parameters.
	Defaults scenario.Params `json:"defaults"`
	// Knobs are the JSON keys of the params the scenario reads; a
	// request setting any other is refused with 400.
	Knobs []string `json:"knobs"`
}

// scenarioList is the envelope of GET /v1/scenarios.
type scenarioList struct {
	Scenarios []ScenarioInfo `json:"scenarios"`
}

// Client is a typed client for the /v1 API. Errors the server sheds or
// fails with come back as *APIError, so callers switch on Kind instead
// of parsing bodies.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
}

// httpClient returns the configured or default HTTP client.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Run submits one run request. cached reports whether the response was
// served from the result cache ("hit"); typed server errors return as
// *APIError.
func (c *Client) Run(ctx context.Context, req RunRequest) (resp *RunResponse, cached bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, false, err
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(hresp.Body)
	if err != nil {
		return nil, false, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, false, decodeAPIError(hresp.StatusCode, data)
	}
	var out RunResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, false, fmt.Errorf("serve: decoding run response: %w", err)
	}
	return &out, hresp.Header.Get("X-Cache") == "hit", nil
}

// Scenarios lists the server's registered scenarios.
func (c *Client) Scenarios(ctx context.Context) ([]ScenarioInfo, error) {
	var out scenarioList
	if err := c.getJSON(ctx, "/v1/scenarios", &out); err != nil {
		return nil, err
	}
	return out.Scenarios, nil
}

// Stats fetches the /statz counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if err := c.getJSON(ctx, "/statz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// getJSON fetches one GET endpoint into out, mapping non-200s to
// *APIError.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(hresp.Body)
	if err != nil {
		return err
	}
	if hresp.StatusCode != http.StatusOK {
		return decodeAPIError(hresp.StatusCode, data)
	}
	return json.Unmarshal(data, out)
}

// decodeAPIError recovers the typed error from an error response,
// falling back to a generic APIError when the body is not the typed
// envelope (e.g. a proxy's HTML error page).
func decodeAPIError(status int, data []byte) error {
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err == nil && eb.Error != nil && eb.Error.Kind != "" {
		return eb.Error
	}
	return &APIError{Status: status, Kind: KindInternal,
		Message: fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(data))}
}
