package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// stack is one served warehouse: the program's handler behind a real
// loopback listener, as kdapd would run it.
type stack struct {
	wh   *warehouse
	tail [][]factValue
	base string
	srv  *http.Server
	done chan struct{} // closed when Serve has returned
}

// newStack builds the workload's warehouse (or serves wh when non-nil)
// and returns once /healthz answers: the moment the first request is
// servable, which is where setup_s stops.
func newStack(w workload, facts int, wh *warehouse) (*stack, error) {
	st := &stack{wh: wh, done: make(chan struct{})}
	if wh == nil {
		st.wh, st.tail = w.build(facts)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.base = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: newServer(st.wh, w.options())}
	go func() {
		defer close(st.done)
		_ = st.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	resp, err := http.Get(st.base + "/healthz")
	if err != nil {
		st.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		st.close()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return st, nil
}

// close stops the listener and every connection and waits for the
// serve loop to end.
func (st *stack) close() {
	_ = st.srv.Close()
	<-st.done
}

// answer is what the oracle keeps of one response: its status and the
// SHA-256 of its body with the session handle masked out.
type answer struct {
	status int
	hash   [sha256.Size]byte
}

func (a answer) String() string { return fmt.Sprintf("%d/%x", a.status, a.hash[:6]) }

// sessionPrefix opens every response that carries a session handle;
// handles are a per-server counter, so they are masked before hashing.
var sessionPrefix = []byte(`{"session":"`)

func hashBody(body []byte) [sha256.Size]byte {
	if bytes.HasPrefix(body, sessionPrefix) {
		if end := bytes.IndexByte(body[len(sessionPrefix):], '"'); end >= 0 {
			h := sha256.New()
			h.Write(sessionPrefix)
			h.Write(body[len(sessionPrefix)+end:])
			var out [sha256.Size]byte
			h.Sum(out[:0])
			return out
		}
	}
	return sha256.Sum256(body)
}

// recordingTransport is the http.RoundTripper under one connection's
// client.Client: it keeps the status and body hash of the last response
// so every answer can be checked although the client package hands back
// decoded values only.
type recordingTransport struct {
	rt   http.RoundTripper
	last answer
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	t.last = answer{status: resp.StatusCode, hash: hashBody(body)}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// conn is one connection to a stack: a client.Client over its own
// single-connection transport. One goroutine uses it at a time.
type conn struct {
	base string
	api  *apiClient
	rec  *recordingTransport
	http *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute}
	rec := &recordingTransport{rt: tr}
	hc := &http.Client{Transport: rec}
	return &conn{base: base, api: newAPIClient(base, hc), rec: rec, http: hc}
}

func (c *conn) close() { c.http.CloseIdleConnections() }

// result turns a client call's error into the answer the server gave: an
// APIError is an answer (its status was recorded), anything else is a
// transport failure and has none.
func (c *conn) result(err error) (answer, error) {
	var ae *apiError
	if err == nil || errors.As(err, &ae) {
		return c.rec.last, nil
	}
	return answer{}, err
}

// postRaw posts a pre-encoded JSON body (the client package has no
// ingest call) and returns the recorded answer and the raw reply.
func (c *conn) postRaw(ctx context.Context, path string, body []byte) (answer, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return answer{}, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return answer{}, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return c.rec.last, data, err
}
