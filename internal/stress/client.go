package stress

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Observation is the harness-side record of one executed op: what the
// client saw, independent of what the server's metrics claim. The
// assertion engine cross-checks the two.
type Observation struct {
	Phase string `json:"phase"`
	User  int    `json:"user"`
	Seq   int    `json:"seq"`
	Kind  string `json:"kind"` // "run" or "graph"
	Fault string `json:"fault,omitempty"`
	// Status is the HTTP status, or 0 when no response arrived (client
	// cancel, deadline, connection killed by a server timeout).
	Status    int     `json:"status"`
	Err       string  `json:"err,omitempty"`
	LatencyMs float64 `json:"latencyMs"`
	// Code is the structured error-code slug from the response envelope
	// (empty on success or when no response arrived). Assertions and
	// fault expectations match on it, never on message substrings.
	Code string `json:"code,omitempty"`
	// RetryAfter records whether a 429 carried the Retry-After header.
	RetryAfter bool `json:"retryAfter,omitempty"`
	Cached     bool `json:"cached,omitempty"`
	// Incremental records whether a run was repaired from the parent
	// version's cached result (dynamic-graph scenarios).
	Incremental bool `json:"incremental,omitempty"`
	// Violation is a harness-detected post-condition break (e.g. the
	// duplicate-upload race yielding two IDs). Any violation fails the
	// run's implicit assertion.
	Violation string `json:"violation,omitempty"`
}

// Client executes planned ops against one serving instance.
type Client struct {
	Base string
	HTTP *http.Client

	mu     sync.Mutex
	graphs map[string]graphHandle // handle → server-side identity
}

// graphHandle is what the client remembers about a created graph: the
// server ID and the vertex count patch ops draw edge endpoints from.
type graphHandle struct {
	id string
	n  int
}

// NewClient returns a client for the service at base (no trailing slash).
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{Base: base, HTTP: hc, graphs: make(map[string]graphHandle)}
}

// graphCreateBody mirrors the service's graph-create request.
type graphCreateBody struct {
	Kind string `json:"kind,omitempty"`
	N    int    `json:"n,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	Data string `json:"data,omitempty"`
}

// runBody mirrors the service's run request.
type runBody struct {
	Graph     string `json:"graph,omitempty"`
	Kernel    string `json:"kernel"`
	Platform  string `json:"platform,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	Threads   int    `json:"threads,omitempty"`
	Source    int    `json:"source,omitempty"`
	Iters     int    `json:"iters,omitempty"`
	MaxPasses int    `json:"maxPasses,omitempty"`
	SimCores  int    `json:"simCores,omitempty"`
	Cities    int    `json:"cities,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	TimeoutMs int    `json:"timeoutMs,omitempty"`
}

// Setup creates the scenario's graphs and records their server IDs.
func (c *Client) Setup(ctx context.Context, graphs []GraphSpec) error {
	for _, g := range graphs {
		id, _, _, err := c.createGraph(ctx, graphCreateBody{Kind: g.Kind, N: g.N, Seed: g.Seed})
		if err != nil {
			return fmt.Errorf("stress: create graph %q: %w", g.Handle, err)
		}
		c.mu.Lock()
		c.graphs[g.Handle] = graphHandle{id: id, n: g.N}
		c.mu.Unlock()
	}
	return nil
}

// errEnvelope mirrors the service's structured error body.
type errEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// parseErrorCode extracts the structured code slug from an error body.
func parseErrorCode(body []byte) string {
	var e errEnvelope
	if json.Unmarshal(body, &e) != nil {
		return ""
	}
	return e.Error.Code
}

func (c *Client) createGraph(ctx context.Context, body graphCreateBody) (id string, status int, code string, err error) {
	buf, _ := json.Marshal(body)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/graphs", bytes.NewReader(buf))
	if err != nil {
		return "", 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", 0, "", err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", resp.StatusCode, parseErrorCode(b),
			fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var gr struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		return "", resp.StatusCode, "", err
	}
	return gr.ID, resp.StatusCode, "", nil
}

// drainClose consumes the rest of a response body so the connection can
// be reused, then closes it.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck
	resp.Body.Close()
}

// Do executes one op, injecting its planned fault, and reports what the
// client observed. ctx bounds the whole op (phase duration cap).
func (c *Client) Do(ctx context.Context, phase string, user int, op *Op) (obs Observation) {
	obs = Observation{Phase: phase, User: user, Seq: op.Seq, Kind: "run", Fault: op.Fault}
	start := time.Now()
	// Named return: the deferred write must land in the value the caller
	// receives, not a dead local.
	defer func() { obs.LatencyMs = float64(time.Since(start)) / float64(time.Millisecond) }()

	switch op.Fault {
	case FaultOversize:
		obs.Kind = "graph"
		// An upload bigger than the server's body cap: expect 413 with the
		// body-too-large code, never an accepted graph.
		body := graphCreateBody{Data: strings.Repeat("x", op.OversizeBytes)}
		id, status, code, err := c.createGraph(ctx, body)
		obs.Status, obs.Code = status, code
		if err != nil && status == 0 {
			obs.Err = err.Error()
		}
		switch {
		case id != "":
			obs.Violation = "oversized upload was accepted"
		case status != 0 && code != "body-too-large":
			obs.Violation = fmt.Sprintf("oversized upload answered %d with code %q, want body-too-large", status, code)
		}
		return obs
	case FaultDupUpload:
		obs.Kind = "graph"
		c.doDupUpload(ctx, op, &obs)
		return obs
	case FaultBadJSON:
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/run",
			strings.NewReader(`{"kernel":"BFS","threads":`))
		if err != nil {
			obs.Err = err.Error()
			return obs
		}
		req.Header.Set("Content-Type", "application/json")
		c.roundTrip(req, &obs)
		if obs.Status != 0 && obs.Code != "bad-json" {
			obs.Violation = fmt.Sprintf("malformed JSON answered %d with code %q, want bad-json", obs.Status, obs.Code)
		}
		return obs
	}

	if op.IsPatch() {
		obs.Kind = "patch"
		c.doPatch(ctx, op, &obs)
		return obs
	}

	// The remaining faults wrap a normal run request.
	body := runBody{
		Kernel: op.Kernel, Platform: op.Platform, Strategy: op.Strategy,
		Threads: op.Threads, Source: op.Source, Iters: op.Iters,
		MaxPasses: op.MaxPasses, SimCores: op.SimCores, TimeoutMs: op.TimeoutMs,
	}
	if op.Cities > 0 {
		body.Cities = op.Cities
		body.Seed = int64(op.Source) + 1
		body.Source = 0
	} else {
		c.mu.Lock()
		body.Graph = c.graphs[op.Graph].id
		c.mu.Unlock()
	}
	buf, _ := json.Marshal(body)

	opCtx := ctx
	var cancel context.CancelFunc
	switch op.Fault {
	case FaultCancel:
		opCtx, cancel = context.WithCancel(ctx)
		timer := time.AfterFunc(time.Duration(op.CancelAfterMs*float64(time.Millisecond)), cancel)
		defer timer.Stop()
		defer cancel()
	case FaultDeadline:
		// The server should answer 504 well within the grace window; the
		// client deadline is only a backstop.
		opCtx, cancel = context.WithTimeout(ctx, time.Duration(op.TimeoutMs)*time.Millisecond+10*time.Second)
		defer cancel()
	case FaultSlowBody:
		opCtx, cancel = context.WithTimeout(ctx, time.Duration(op.SlowBodyMs*float64(time.Millisecond))+10*time.Second)
		defer cancel()
	}

	var rd io.Reader = bytes.NewReader(buf)
	if op.Fault == FaultSlowBody {
		rd = &slowReader{ctx: opCtx, data: buf, totalMs: op.SlowBodyMs}
	}
	req, err := http.NewRequestWithContext(opCtx, http.MethodPost, c.Base+"/v1/run", rd)
	if err != nil {
		obs.Err = err.Error()
		return obs
	}
	req.Header.Set("Content-Type", "application/json")
	if op.Fault == FaultSlowBody {
		// Defeat transparent buffering: without a declared length the
		// body streams chunked at the reader's pace.
		req.ContentLength = -1
	}
	c.roundTrip(req, &obs)
	return obs
}

// roundTrip performs the request and fills status/err/code/cached.
func (c *Client) roundTrip(req *http.Request, obs *Observation) {
	resp, err := c.HTTP.Do(req)
	if err != nil {
		obs.Err = err.Error()
		return
	}
	defer drainClose(resp)
	obs.Status = resp.StatusCode
	if resp.StatusCode == http.StatusTooManyRequests {
		obs.RetryAfter = resp.Header.Get("Retry-After") != ""
	}
	switch {
	case resp.StatusCode >= 400:
		// Every error must carry the structured envelope; a bare body is
		// itself a post-condition break.
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		obs.Code = parseErrorCode(b)
		if obs.Code == "" {
			obs.Violation = fmt.Sprintf("status %d without a structured error code", resp.StatusCode)
		}
	case resp.StatusCode == http.StatusOK && obs.Kind == "run":
		var rr struct {
			Cached      bool `json:"cached"`
			Incremental bool `json:"incremental"`
		}
		if json.NewDecoder(resp.Body).Decode(&rr) == nil {
			obs.Cached = rr.Cached
			obs.Incremental = rr.Incremental
		}
	}
}

// patchBody mirrors the service's patch request.
type patchBody struct {
	Inserts []edgeBody `json:"inserts,omitempty"`
	Deletes []edgeBody `json:"deletes,omitempty"`
}

type edgeBody struct {
	From   int32 `json:"from"`
	To     int32 `json:"to"`
	Weight int32 `json:"weight,omitempty"`
}

// doPatch mutates the op's graph with a deterministic edge batch drawn
// from the op's patch seed: distinct non-loop pairs, the first
// PatchInserts as weighted inserts, the rest as deletes (absent deletes
// are a documented server-side no-op, so the client needs no edge-state
// tracking). Any 4xx on a harness-generated batch is a violation — the
// batch is valid by construction.
func (c *Client) doPatch(ctx context.Context, op *Op, obs *Observation) {
	c.mu.Lock()
	h := c.graphs[op.Graph]
	c.mu.Unlock()
	if h.id == "" || h.n < 2 {
		obs.Violation = fmt.Sprintf("patch references unknown graph handle %q", op.Graph)
		return
	}
	st := &stream{state: op.PatchSeed}
	used := make(map[[2]int32]bool, op.PatchInserts+op.PatchDeletes)
	draw := func() (int32, int32) {
		for {
			a, b := int32(st.intn(h.n)), int32(st.intn(h.n))
			if a != b && !used[[2]int32{a, b}] {
				used[[2]int32{a, b}] = true
				return a, b
			}
		}
	}
	var body patchBody
	for i := 0; i < op.PatchInserts; i++ {
		a, b := draw()
		body.Inserts = append(body.Inserts, edgeBody{From: a, To: b, Weight: int32(1 + st.intn(8))})
	}
	for i := 0; i < op.PatchDeletes; i++ {
		a, b := draw()
		body.Deletes = append(body.Deletes, edgeBody{From: a, To: b})
	}
	buf, _ := json.Marshal(body)
	req, err := http.NewRequestWithContext(ctx, http.MethodPatch, c.Base+"/v1/graphs/"+h.id, bytes.NewReader(buf))
	if err != nil {
		obs.Err = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	c.roundTrip(req, obs)
	if obs.Status >= 400 && obs.Status < 500 {
		obs.Violation = fmt.Sprintf("valid patch rejected with %d (code %q)", obs.Status, obs.Code)
	}
}

// doDupUpload races two identical uploads and verifies the store's
// content-addressed dedup: both must land on one ID.
func (c *Client) doDupUpload(ctx context.Context, op *Op, obs *Observation) {
	body := graphCreateBody{Kind: "sparse", N: 256, Seed: op.DupSeed}
	type res struct {
		id     string
		status int
		err    error
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			id, status, _, err := c.createGraph(ctx, body)
			results <- res{id, status, err}
		}()
	}
	a, b := <-results, <-results
	obs.Status = a.status
	if a.err != nil {
		obs.Err = a.err.Error()
	} else if b.err != nil {
		obs.Err = b.err.Error()
	}
	if a.err == nil && b.err == nil && a.id != b.id {
		obs.Violation = fmt.Sprintf("duplicate upload produced two IDs: %s vs %s", a.id, b.id)
	}
}

// slowReader trickles its payload over roughly totalMs, one chunk at a
// time, to exercise the server's read deadline.
type slowReader struct {
	ctx     context.Context
	data    []byte
	totalMs float64
	pos     int
}

func (s *slowReader) Read(p []byte) (int, error) {
	if s.pos >= len(s.data) {
		return 0, io.EOF
	}
	const chunks = 16
	chunk := (len(s.data) + chunks - 1) / chunks
	if chunk < 1 {
		chunk = 1
	}
	select {
	case <-s.ctx.Done():
		return 0, s.ctx.Err()
	case <-time.After(time.Duration(s.totalMs / chunks * float64(time.Millisecond))):
	}
	n := copy(p, s.data[s.pos:min(s.pos+chunk, len(s.data))])
	s.pos += n
	return n, nil
}
