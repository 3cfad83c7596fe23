// Package client is a Go client for the kdapd HTTP API: the
// differentiate → pick → explore → drill loop against a remote KDAP
// server, with the same DTOs the server returns.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client talks to one kdapd server.
type Client struct {
	baseURL string
	http    *http.Client
}

// New creates a client for the server at baseURL (e.g.
// "http://localhost:8080"). httpClient may be nil for
// http.DefaultClient.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{baseURL: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// --- response types (mirroring internal/server's DTOs) ---

// Interpretation is one ranked star net.
type Interpretation struct {
	Rank      int        `json:"rank"`
	Score     float64    `json:"score"`
	Signature string     `json:"signature"`
	Groups    []HitGroup `json:"groups"`
}

// HitGroup is one hit group of an interpretation.
type HitGroup struct {
	Table  string   `json:"table"`
	Attr   string   `json:"attr"`
	Role   string   `json:"role"`
	Alias  string   `json:"alias"`
	Phrase string   `json:"phrase,omitempty"`
	Values []string `json:"values"`
}

// QueryResult is the answer to Query: a server-side session handle plus
// the ranked interpretations.
type QueryResult struct {
	Session         string           `json:"session"`
	Query           string           `json:"query"`
	Interpretations []Interpretation `json:"interpretations"`
}

// Facets is the explore result.
type Facets struct {
	SubspaceSize   int               `json:"subspaceSize"`
	TotalAggregate float64           `json:"totalAggregate"`
	Dimensions     []DimensionFacets `json:"dimensions"`
}

// DimensionFacets is one dimension's facets.
type DimensionFacets struct {
	Dimension  string      `json:"dimension"`
	Hitted     bool        `json:"hitted"`
	Attributes []AttrFacet `json:"attributes"`
}

// AttrFacet is one facet attribute.
type AttrFacet struct {
	Table     string     `json:"table"`
	Attr      string     `json:"attr"`
	Role      string     `json:"role"`
	Score     float64    `json:"score"`
	Promoted  bool       `json:"promoted"`
	Numeric   bool       `json:"numeric"`
	Instances []Instance `json:"instances"`
}

// Instance is one facet entry.
type Instance struct {
	Label     string  `json:"label"`
	Lo        float64 `json:"lo,omitempty"`
	Hi        float64 `json:"hi,omitempty"`
	Aggregate float64 `json:"aggregate"`
	Score     float64 `json:"score"`
}

// ExploreOptions tune an Explore call; zero values use server defaults.
type ExploreOptions struct {
	Mode          string // "surprise" (default) or "bellwether"
	TopKAttrs     int
	TopKInstances int
}

// APIError is a non-2xx response from the server.
type APIError struct {
	StatusCode int
	Message    string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("kdap server: %d: %s", e.StatusCode, e.Message)
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.send(req, out)
}

// send runs req and decodes a 2xx body into out (nil: discard it); any
// other status comes back as an *APIError.
func (c *Client) send(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(data, &e)
		if e.Error == "" {
			e.Error = strings.TrimSpace(string(data))
		}
		return &APIError{StatusCode: resp.StatusCode, Message: e.Error}
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// Warehouses lists the warehouses the server exposes.
func (c *Client) Warehouses(ctx context.Context) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/api/warehouses", nil)
	if err != nil {
		return nil, err
	}
	var out struct {
		Warehouses []string `json:"warehouses"`
	}
	if err := c.send(req, &out); err != nil {
		return nil, err
	}
	return out.Warehouses, nil
}

// Query runs the differentiate phase against a warehouse.
func (c *Client) Query(ctx context.Context, db, q string) (*QueryResult, error) {
	var out QueryResult
	if err := c.post(ctx, "/api/query", map[string]any{"db": db, "q": q}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Explore builds the facets of the picked (1-based) interpretation.
func (c *Client) Explore(ctx context.Context, session string, pick int, opts ExploreOptions) (*Facets, error) {
	var out Facets
	body := map[string]any{"session": session, "pick": pick}
	if opts.Mode != "" {
		body["mode"] = opts.Mode
	}
	if opts.TopKAttrs > 0 {
		body["topKAttrs"] = opts.TopKAttrs
	}
	if opts.TopKInstances > 0 {
		body["topKInstances"] = opts.TopKInstances
	}
	if err := c.post(ctx, "/api/explore", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Drill narrows the picked interpretation by a categorical facet
// instance, returning the new session handle (pick 1 against it).
func (c *Client) Drill(ctx context.Context, session string, pick int, a AttrFacet, value string) (string, error) {
	var out struct {
		Session string `json:"session"`
	}
	err := c.post(ctx, "/api/drill", map[string]any{
		"session": session, "pick": pick,
		"table": a.Table, "attr": a.Attr, "role": a.Role, "value": value,
	}, &out)
	return out.Session, err
}

// DrillRange narrows by a numeric facet range.
func (c *Client) DrillRange(ctx context.Context, session string, pick int, a AttrFacet, lo, hi float64) (string, error) {
	var out struct {
		Session string `json:"session"`
	}
	err := c.post(ctx, "/api/drill", map[string]any{
		"session": session, "pick": pick,
		"table": a.Table, "attr": a.Attr, "role": a.Role,
		"numeric": true, "lo": lo, "hi": hi,
	}, &out)
	return out.Session, err
}

// Suggest returns "did you mean" corrections for unmatched keywords.
func (c *Client) Suggest(ctx context.Context, db, q string) (map[string][]string, error) {
	var out struct {
		Suggestions map[string][]string `json:"suggestions"`
	}
	if err := c.post(ctx, "/api/suggest", map[string]any{"db": db, "q": q}, &out); err != nil {
		return nil, err
	}
	return out.Suggestions, nil
}
