package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"daginsched/internal/asm"
	"daginsched/internal/block"
	"daginsched/internal/engine"
	"daginsched/internal/fault"
	"daginsched/internal/machine"
)

// blockResult is one block's row in the /v1/schedule response.
type blockResult struct {
	Name   string  `json:"name"`
	Cycles int32   `json:"cycles"`
	Arcs   int32   `json:"arcs"`
	Rung   string  `json:"rung"`
	Order  []int32 `json:"order,omitempty"`
}

// scheduleResponse is the /v1/schedule 200 payload.
type scheduleResponse struct {
	Blocks      int           `json:"blocks"`
	Insts       int64         `json:"insts"`
	TotalCycles int64         `json:"total_cycles"`
	CacheHits   int64         `json:"cache_hits"`
	DiskHits    int64         `json:"disk_hits"`
	Results     []blockResult `json:"results"`
}

// streamRecord is one block's NDJSON line on /v1/stream.
type streamRecord struct {
	Seq    int64   `json:"seq"`
	Name   string  `json:"name"`
	Cycles int32   `json:"cycles"`
	Arcs   int32   `json:"arcs"`
	Rung   string  `json:"rung"`
	Order  []int32 `json:"order,omitempty"`
}

// streamTrailer is the terminal NDJSON line: the stream's tallies,
// plus the scan error when the body went malformed mid-stream.
type streamTrailer struct {
	Done     bool   `json:"done"`
	Blocks   int    `json:"blocks"`
	Insts    int64  `json:"insts"`
	Degraded int64  `json:"degraded"`
	Error    string `json:"error,omitempty"`
	Line     int    `json:"line,omitempty"`
}

// scanBlocks partitions an assembly body into basic blocks with the
// streaming scanner, as the daemon does.
func scanBlocks(ctx context.Context, body []byte) ([]*block.Block, error) {
	sc := asm.NewBlockScanner(bytes.NewReader(body))
	var blocks []*block.Block
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := &block.Block{}
		ok, err := sc.Next(b)
		if err != nil {
			return nil, err
		}
		if !ok {
			return blocks, nil
		}
		blocks = append(blocks, b)
	}
}

// corpusAsm renders n labeled basic blocks of valid assembly, varied
// by index so the corpus has distinct block fingerprints (with repeats
// every 7·13 blocks, exercising the schedule cache).
func corpusAsm(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "b%d:\n", i)
		fmt.Fprintf(&sb, "\tld [%%fp-%d], %%o0\n", 4+(i%7)*4)
		sb.WriteString("\tadd %o0, 1, %o1\n")
		fmt.Fprintf(&sb, "\tmov %d, %%l7\n", i%13)
		sb.WriteString("\tcmp %o1, 0\n")
		fmt.Fprintf(&sb, "\tbne b%d\n", i) // the CTI ends the block
	}
	return sb.String()
}

// newTestServer builds a server over a fresh engine. Mutate the
// configs through the hooks before construction.
func newTestServer(t *testing.T, ecfg func(*engine.Config), scfg func(*Config)) *Server {
	t.Helper()
	ec := engine.Config{Workers: 2, Model: machine.Super2(), KeepOrders: true, Cache: true}
	if ecfg != nil {
		ecfg(&ec)
	}
	eng, err := engine.New(ec)
	if err != nil {
		t.Fatal(err)
	}
	sc := Config{Engine: eng}
	if scfg != nil {
		scfg(&sc)
	}
	s, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// post runs one request through the handler tree.
func post(s *Server, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func decodeSchedule(t *testing.T, w *httptest.ResponseRecorder) scheduleResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp scheduleResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, w.Body.String())
	}
	return resp
}

// referenceOrders schedules body on a fresh cache-disabled engine —
// the independent witness server responses are compared against.
func referenceOrders(t *testing.T, body string) [][]int32 {
	t.Helper()
	eng, err := engine.New(engine.Config{Workers: 1, Model: machine.Super2(), KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := scanBlocks(context.Background(), []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return res.Orders
}

func requireOrders(t *testing.T, got []blockResult, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i].Order) != len(want[i]) {
			t.Fatalf("block %d: order length %d, want %d", i, len(got[i].Order), len(want[i]))
		}
		for k := range want[i] {
			if got[i].Order[k] != want[i][k] {
				t.Fatalf("block %d position %d: node %d, want %d", i, k, got[i].Order[k], want[i][k])
			}
		}
	}
}

// TestScheduleBatch pins the batch endpoint: a valid unit comes back
// 200 with per-block schedules byte-identical to a cache-disabled
// reference engine, all at the primary rung.
func TestScheduleBatch(t *testing.T) {
	s := newTestServer(t, nil, nil)
	body := corpusAsm(40)
	resp := decodeSchedule(t, post(s, "/v1/schedule", body, nil))
	if resp.Blocks != 40 {
		t.Fatalf("blocks = %d, want 40", resp.Blocks)
	}
	requireOrders(t, resp.Results, referenceOrders(t, body))
	for i, r := range resp.Results {
		if r.Rung != "primary" {
			t.Fatalf("block %d served at rung %q", i, r.Rung)
		}
	}
	snap := s.Stats()
	if snap.Served != 1 || snap.Blocks != 40 {
		t.Fatalf("stats served=%d blocks=%d, want 1/40", snap.Served, snap.Blocks)
	}
}

// TestMalformedAsm pins the 4xx taxonomy: a malformed body is a 400
// with the scanner's line number, and the daemon is not poisoned — the
// next valid request on the same server succeeds.
func TestMalformedAsm(t *testing.T) {
	s := newTestServer(t, nil, nil)
	w := post(s, "/v1/schedule", "b0:\n\tld [%fp-4], %o0\n\tthis is not assembly\n", nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
	}
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Line != 3 {
		t.Fatalf("error line %d, want 3 (%s)", eb.Line, eb.Error)
	}
	if w := post(s, "/v1/schedule", corpusAsm(3), nil); w.Code != http.StatusOK {
		t.Fatalf("valid request after malformed one: %d", w.Code)
	}
	if n := s.Stats().BadRequests; n != 1 {
		t.Fatalf("bad_requests = %d, want 1", n)
	}
	if w := post(s, "/v1/schedule", "", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("empty body: %d, want 400", w.Code)
	}
}

// openStream starts a /v1/stream request whose body stays open and
// waits until the server has emitted n records. The body carries more
// than one chunk of small blocks, since a partial chunk waits for more
// input. Closing the returned writer ends the body; the request's
// recorder arrives on the channel once its handler returns.
func openStream(t *testing.T, s *Server, n int64) (*io.PipeWriter, <-chan *httptest.ResponseRecorder) {
	t.Helper()
	pr, pw := io.Pipe()
	served := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/stream", pr))
		served <- w
	}()
	go func() { _, _ = io.WriteString(pw, corpusAsm(40)) }()
	for deadline := time.Now().Add(10 * time.Second); s.rungs[engine.RungPrimary].Load() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("the open stream emitted fewer than %d records", n)
		}
		time.Sleep(time.Millisecond)
	}
	return pw, served
}

// holdEngine opens a stream (openStream) whose RunStream then holds
// every engine worker — it was alone when it checked them out — and
// one engine-queue slot. The returned func ends the body and waits for
// the request, which must have streamed to completion.
func holdEngine(t *testing.T, s *Server) (release func()) {
	t.Helper()
	pw, served := openStream(t, s, 1)
	return func() {
		t.Helper()
		pw.Close()
		w := <-served
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"done":true`) {
			t.Fatalf("holding stream: status %d: %s", w.Code, w.Body.String())
		}
	}
}

// TestQueueShed saturates the engine queue with a real run — a stream
// whose body is held open — and requires the next request to shed 429
// with a Retry-After instead of piling up.
func TestQueueShed(t *testing.T) {
	s := newTestServer(t, nil, func(c *Config) { c.MaxQueue = 1 })
	release := holdEngine(t, s)
	defer release()

	w := post(s, "/v1/schedule", corpusAsm(2), nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if n := s.Stats().Shed.Queue; n != 1 {
		t.Fatalf("shed.queue = %d, want 1", n)
	}
}

// TestQueuedDeadline occupies every engine worker with a held-open
// stream and sends short-deadline requests to both endpoints: each
// must come back 504 (expired while waiting for a worker), never hang
// — the stream included, since its status line waits for a record.
func TestQueuedDeadline(t *testing.T) {
	s := newTestServer(t, nil, nil)
	release := holdEngine(t, s)
	defer release()

	for i, path := range []string{"/v1/schedule", "/v1/stream"} {
		w := post(s, path+"?deadline_ms=5", corpusAsm(2), nil)
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want 504: %s", path, w.Code, w.Body.String())
		}
		if n := s.Stats().DeadlineHits; n != int64(i+1) {
			t.Fatalf("%s: deadline_hits = %d, want %d", path, n, i+1)
		}
	}
}

// TestRateShed pins the global token bucket on a fake clock: burst
// admits, the next request sheds with a truthful Retry-After, and
// advancing the clock past the refill horizon admits again.
func TestRateShed(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newTestServer(t, nil, func(c *Config) {
		c.Rate, c.Burst = 1, 2
		c.now = func() time.Time { return now }
	})
	body := corpusAsm(2)
	for i := 0; i < 2; i++ {
		if w := post(s, "/v1/schedule", body, nil); w.Code != http.StatusOK {
			t.Fatalf("burst request %d: %d", i, w.Code)
		}
	}
	w := post(s, "/v1/schedule", body, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
	now = now.Add(1100 * time.Millisecond)
	if w := post(s, "/v1/schedule", body, nil); w.Code != http.StatusOK {
		t.Fatalf("after refill: %d", w.Code)
	}
	if n := s.Stats().Shed.Rate; n != 1 {
		t.Fatalf("shed.rate = %d, want 1", n)
	}
}

// TestTenantShed pins per-tenant quotas: tenant A exhausting its
// bucket does not touch tenant B's.
func TestTenantShed(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newTestServer(t, nil, func(c *Config) {
		c.TenantRate, c.TenantBurst = 1, 1
		c.now = func() time.Time { return now }
	})
	body := corpusAsm(2)
	if w := post(s, "/v1/schedule", body, map[string]string{"X-Tenant": "a"}); w.Code != http.StatusOK {
		t.Fatalf("tenant a first: %d", w.Code)
	}
	if w := post(s, "/v1/schedule", body, map[string]string{"X-Tenant": "a"}); w.Code != http.StatusTooManyRequests {
		t.Fatalf("tenant a second: %d, want 429", w.Code)
	}
	if w := post(s, "/v1/schedule", body, map[string]string{"X-Tenant": "b"}); w.Code != http.StatusOK {
		t.Fatalf("tenant b: %d (a's exhaustion leaked)", w.Code)
	}
	snap := s.Stats()
	if snap.Shed.Tenant != 1 {
		t.Fatalf("shed.tenant = %d, want 1", snap.Shed.Tenant)
	}
	if tc := snap.Tenants["a"]; tc.Served != 1 || tc.Shed != 1 {
		t.Fatalf("tenant a counts = %+v, want served 1 shed 1", tc)
	}
}

// TestInflightBytesShed pins the byte budget: a body whose declared
// size cannot fit the in-flight cap sheds 429 before being read.
func TestInflightBytesShed(t *testing.T) {
	s := newTestServer(t, nil, func(c *Config) { c.MaxInflightBytes = 64 })
	body := corpusAsm(10) // well over 64 bytes
	w := post(s, "/v1/schedule", body, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	if n := s.Stats().Shed.Bytes; n != 1 {
		t.Fatalf("shed.bytes = %d, want 1", n)
	}
}

// TestBodyTooLarge pins the 413: a body past MaxBody is refused.
func TestBodyTooLarge(t *testing.T) {
	s := newTestServer(t, nil, func(c *Config) { c.MaxBody = 128 })
	w := post(s, "/v1/schedule", corpusAsm(20), nil)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", w.Code, w.Body.String())
	}
}

// TestBodyReadError pins the other side of the 413: an upload that
// fails mid-read (a truncated or aborted body) is a 400, not "too
// large".
func TestBodyReadError(t *testing.T) {
	s := newTestServer(t, nil, nil)
	body := io.MultiReader(strings.NewReader(corpusAsm(2)), iotest.ErrReader(io.ErrUnexpectedEOF))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", body))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
	}
}

// TestStreamBodyCap pins /v1/stream's answer to a body the size cap
// cuts off. Cut before the first block is complete, it is a 413, as on
// /v1/schedule. Cut mid-line, the fragment is neither scheduled (a
// record carrying the cut "bne b12") nor blamed with a parse error:
// before the first block that is the same 413, and mid-stream the
// trailer carries the cap's error.
func TestStreamBodyCap(t *testing.T) {
	const first = "b0:\n\tadd %o0, 1, %o1\n\tbne b12345\n"
	for _, cut := range []string{"\tadd %o0, 1, %o1\n", "\tbne b12"} {
		limit := int64(strings.Index(first, cut) + len(cut))
		s := newTestServer(t, nil, func(c *Config) { c.MaxBody = limit })
		w := post(s, "/v1/stream", first+corpusAsm(3), nil)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("cut after %q: status %d, want 413: %s", cut, w.Code, w.Body.String())
		}
	}

	body := corpusAsm(3) + "b3:\n\tcmp %o1, 0\n\tbne b3\n"
	limit := int64(strings.LastIndex(body, "\tcmp %o1") + len("\tcmp %o1"))
	s := newTestServer(t, nil, func(c *Config) { c.MaxBody = limit })
	w := post(s, "/v1/stream", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with an error trailer: %s", w.Code, w.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	var tr streamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Done || tr.Blocks != 3 || !strings.Contains(tr.Error, "request body too large") || tr.Line != 0 {
		t.Fatalf("trailer %+v, want 3 blocks and the size cap's error", tr)
	}
}

// TestDeadlineOverflow pins the clamp on client deadlines: one too
// large for a time.Duration is MaxDeadline, not an overflow into a
// deadline already past.
func TestDeadlineOverflow(t *testing.T) {
	s := newTestServer(t, nil, nil)
	const huge = "10000000000000"
	decodeSchedule(t, post(s, "/v1/schedule?deadline_ms="+huge, corpusAsm(3), nil))
	decodeSchedule(t, post(s, "/v1/schedule", corpusAsm(3), map[string]string{"X-Deadline-Ms": huge}))
}

// TestDeadlineDegradesToIdentity pins the deadline→ladder mapping: a
// fault plan stalling every block against a tiny BlockTimeout must
// still answer 200 — every block served, degraded down the ladder —
// instead of hanging or failing the request.
func TestDeadlineDegradesToIdentity(t *testing.T) {
	s := newTestServer(t, func(c *engine.Config) {
		c.BlockTimeout = time.Nanosecond
		c.FaultPlan = &fault.Plan{Seed: 7, SlowBlock: 1, SlowDelay: time.Millisecond}
	}, nil)
	resp := decodeSchedule(t, post(s, "/v1/schedule", corpusAsm(6), nil))
	degraded := 0
	for _, r := range resp.Results {
		if r.Rung != "primary" {
			degraded++
		}
		if len(r.Order) == 0 {
			t.Fatalf("degraded block %s served no schedule", r.Name)
		}
	}
	if degraded == 0 {
		t.Fatal("no block degraded; the stall plan injected nothing")
	}
	if s.Stats().Engine.DegradedBlocks == 0 {
		t.Fatal("stats did not count degraded blocks")
	}
}

// TestPanicIsolation pins the recover boundary: a panicking handler
// answers a one-line 500 and the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, nil, nil)
	h := s.guard(func(http.ResponseWriter, *http.Request) { panic("boom") })
	w := httptest.NewRecorder()
	h(w, httptest.NewRequest(http.MethodGet, "/v1/schedule", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if !strings.Contains(w.Body.String(), "boom") {
		t.Fatalf("500 body lost the diagnosis: %s", w.Body.String())
	}
	if n := s.Stats().Panics; n != 1 {
		t.Fatalf("panics = %d, want 1", n)
	}
	if w := post(s, "/v1/schedule", corpusAsm(2), nil); w.Code != http.StatusOK {
		t.Fatalf("request after panic: %d", w.Code)
	}
}

// TestDrain pins the shutdown protocol: readyz flips to 503 (healthz
// stays 200), new requests shed as drain, the report carries the
// tallies, and the engine is closed (flushed) exactly once.
func TestDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.cache")
	s := newTestServer(t, func(c *engine.Config) { c.CachePath = path }, nil)
	if w := post(s, "/v1/schedule", corpusAsm(5), nil); w.Code != http.StatusOK {
		t.Fatalf("pre-drain request: %d", w.Code)
	}
	if w := get(s, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", w.Code)
	}

	rep := s.Drain(context.Background())
	if rep.Served != 1 || rep.Forced || rep.CloseErr != nil {
		t.Fatalf("drain report %+v", rep)
	}
	if w := get(s, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", w.Code)
	}
	if w := get(s, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz after drain: %d, want 200", w.Code)
	}
	w := post(s, "/v1/schedule", corpusAsm(2), nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %d, want 503", w.Code)
	}
	rep2 := s.Drain(context.Background())
	if rep2.CloseErr != nil {
		t.Fatalf("second drain: %v", rep2.CloseErr)
	}
	if rep2.Shed != 1 {
		t.Fatalf("second drain shed = %d, want 1", rep2.Shed)
	}
}

// TestDrainForcedStream pins the bounded forced drain: with a stalled
// /v1/stream in flight (its body never ends), Drain must give up
// waiting at its budget, cancel the request so its run stops at the
// next block claim, and still flush the cache — CloseErr nil, and a
// fresh engine over the file serves the stream's blocks from disk.
func TestDrainForcedStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.cache")
	s := newTestServer(t, func(c *engine.Config) { c.CachePath = path }, nil)
	pw, served := openStream(t, s, 2)
	defer pw.Close()

	const budget = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	rep := s.Drain(ctx)
	if took := time.Since(start); took > budget+5*time.Second {
		t.Fatalf("forced drain took %v on a %v budget", took, budget)
	}
	if !rep.Forced || rep.CloseErr != nil {
		t.Fatalf("drain report %+v, want forced with a clean close", rep)
	}
	w := <-served
	if !strings.Contains(w.Body.String(), `"done":false`) {
		t.Fatalf("cancelled stream did not end with an error trailer: %s", w.Body.String())
	}

	eng, err := engine.New(engine.Config{Workers: 1, Model: machine.Super2(), CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	blocks, err := scanBlocks(context.Background(), []byte(corpusAsm(2)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DiskHits != 2 {
		t.Fatalf("reopened cache served %d of 2 streamed blocks from disk", res.Stats.DiskHits)
	}
}

// TestWarmRestart is the crash-recovery story in miniature: a first
// server populates a cache file and drains (flushing it); a second
// server over the same file must serve byte-identical schedules with
// disk hits — the warm restart the daemon's CachePath buys.
func TestWarmRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.cache")
	body := corpusAsm(40)
	want := referenceOrders(t, body)

	s1 := newTestServer(t, func(c *engine.Config) { c.CachePath = path }, nil)
	resp1 := decodeSchedule(t, post(s1, "/v1/schedule", body, nil))
	requireOrders(t, resp1.Results, want)
	if rep := s1.Drain(context.Background()); rep.CloseErr != nil {
		t.Fatalf("drain: %v", rep.CloseErr)
	}

	s2 := newTestServer(t, func(c *engine.Config) { c.CachePath = path }, nil)
	resp2 := decodeSchedule(t, post(s2, "/v1/schedule", body, nil))
	requireOrders(t, resp2.Results, want)
	if resp2.DiskHits == 0 {
		t.Fatal("warm server served no disk hits; the restart was cold")
	}
	snap := s2.Stats()
	if snap.Engine.DiskHits != resp2.DiskHits {
		t.Fatalf("stats disk_hits %d != response %d", snap.Engine.DiskHits, resp2.DiskHits)
	}
	if rep := s2.Drain(context.Background()); rep.CloseErr != nil {
		t.Fatalf("second drain: %v", rep.CloseErr)
	}
}

// TestStreamMatchesBatch pins the streaming endpoint: NDJSON outcomes
// in arrival order, schedules byte-identical to the batch endpoint's,
// a done trailer with the stream's tallies.
func TestStreamMatchesBatch(t *testing.T) {
	s := newTestServer(t, nil, nil)
	body := corpusAsm(30)
	want := referenceOrders(t, body)

	w := post(s, "/v1/stream", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != 31 { // 30 records + trailer
		t.Fatalf("%d NDJSON lines, want 31", len(lines))
	}
	for i, line := range lines[:30] {
		var rec streamRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Seq != int64(i) {
			t.Fatalf("line %d: seq %d — outcomes must arrive in order", i, rec.Seq)
		}
		if rec.Name != fmt.Sprintf("b%d", i) {
			t.Fatalf("line %d: name %q", i, rec.Name)
		}
		if len(rec.Order) != len(want[i]) {
			t.Fatalf("line %d: order length %d, want %d", i, len(rec.Order), len(want[i]))
		}
		for k := range want[i] {
			if rec.Order[k] != want[i][k] {
				t.Fatalf("block %d position %d: node %d, want %d", i, k, rec.Order[k], want[i][k])
			}
		}
	}
	var tr streamTrailer
	if err := json.Unmarshal([]byte(lines[30]), &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Done || tr.Blocks != 30 {
		t.Fatalf("trailer %+v, want done with 30 blocks", tr)
	}
}

// TestOrdersFromPlainEngine serves from an engine configured with
// nothing but its workers and model: both endpoints must still return
// every block's order, byte-identical to the reference.
func TestOrdersFromPlainEngine(t *testing.T) {
	s := newTestServer(t, func(c *engine.Config) {
		*c = engine.Config{Workers: 1, Model: machine.Super2()}
	}, nil)
	body := corpusAsm(20)
	want := referenceOrders(t, body)

	requireOrders(t, decodeSchedule(t, post(s, "/v1/schedule", body, nil)).Results, want)

	w := post(s, "/v1/stream", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", w.Code, w.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	var got []blockResult
	for i, line := range lines[:len(lines)-1] { // the last line is the trailer
		var rec streamRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		got = append(got, blockResult{Order: rec.Order})
	}
	requireOrders(t, got, want)
}

// TestStreamLargeBodyOverListener drives /v1/stream through a real
// HTTP/1.1 listener (a ResponseRecorder never sees the bug this pins):
// a handler that flushes its first record and keeps reading the body
// must run full duplex, or net/http discards up to 256 KiB of the
// unread body and the stream ends early or misparses. Bodies above
// 256 KiB are sent with and without a Content-Length (a piped
// producer's upload is chunked), plus one below it. Every block must
// come back, in order, followed by a done trailer.
func TestStreamLargeBodyOverListener(t *testing.T) {
	s := newTestServer(t, nil, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, tc := range []struct {
		name    string
		blocks  int
		chunked bool
	}{
		{"over 256KiB with length", 6000, false},
		{"over 256KiB chunked", 6000, true},
		{"under 256KiB with length", 1500, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := corpusAsm(tc.blocks)
			if big := len(body) > 256<<10; big != (tc.blocks == 6000) {
				t.Fatalf("%d-byte body is on the wrong side of 256 KiB", len(body))
			}
			var rd io.Reader = strings.NewReader(body)
			if tc.chunked {
				rd = io.MultiReader(rd) // hides the length: the client sends chunks
			}
			resp, err := http.Post(ts.URL+"/v1/stream", "text/plain", rd)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			sc := bufio.NewScanner(resp.Body)
			var lines []string
			for sc.Scan() {
				lines = append(lines, sc.Text())
			}
			if err := sc.Err(); err != nil {
				t.Fatalf("reading the stream after %d lines: %v", len(lines), err)
			}
			n := tc.blocks
			if len(lines) != n+1 {
				t.Fatalf("%d NDJSON lines, want %d records + trailer (last line: %.200s)", len(lines), n, lines[len(lines)-1])
			}
			for i, line := range lines[:n] {
				var rec streamRecord
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("line %d: %v", i, err)
				}
				if rec.Seq != int64(i) {
					t.Fatalf("line %d: seq %d", i, rec.Seq)
				}
			}
			var tr streamTrailer
			if err := json.Unmarshal([]byte(lines[n]), &tr); err != nil {
				t.Fatal(err)
			}
			if !tr.Done || tr.Blocks != n {
				t.Fatalf("trailer %+v, want done with %d blocks", tr, n)
			}
		})
	}
}

// TestStreamMidstreamMalformed pins the in-band error path: a body
// that goes malformed after valid blocks streams those blocks, then
// terminates with an error trailer — and the daemon serves the next
// request cleanly.
func TestStreamMidstreamMalformed(t *testing.T) {
	s := newTestServer(t, nil, nil)
	body := corpusAsm(3) + "bX:\n\tgenuinely not assembly here\n"
	w := post(s, "/v1/stream", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d (error arrived before any block?)", w.Code)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	var tr streamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Done || tr.Error == "" {
		t.Fatalf("trailer %+v, want an in-band error", tr)
	}
	if tr.Line == 0 {
		t.Fatalf("trailer lost the parse line: %+v", tr)
	}
	if w := post(s, "/v1/stream", corpusAsm(2), nil); w.Code != http.StatusOK {
		t.Fatalf("stream after malformed stream: %d", w.Code)
	}
	// A body malformed before the first block boundary is still a
	// clean 400: the status line has not been committed yet.
	if w := post(s, "/v1/stream", "\tnot even close\n", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("immediately-malformed stream: %d, want 400", w.Code)
	}
}

// TestStatsEndpoint pins that /stats is live JSON carrying the
// hardening counters the ops story depends on.
func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, nil, nil)
	if w := post(s, "/v1/schedule", corpusAsm(4), nil); w.Code != http.StatusOK {
		t.Fatalf("request: %d", w.Code)
	}
	w := get(s, "/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d", w.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Served != 1 || snap.Blocks != 4 {
		t.Fatalf("snapshot served=%d blocks=%d", snap.Served, snap.Blocks)
	}
	if snap.Rungs["primary"] != 4 {
		t.Fatalf("rung histogram %v, want 4 primary", snap.Rungs)
	}
	if snap.MaxQueue == 0 || snap.MaxInflightBytes == 0 {
		t.Fatal("snapshot lost its limits")
	}
}

// TestBucketMath pins the token bucket against hand-computed refills.
func TestBucketMath(t *testing.T) {
	b := newBucket(2, 4) // 2 tokens/s, burst 4
	now := time.Unix(0, 0)
	for i := 0; i < 4; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("burst take %d refused", i)
		}
	}
	ok, retry := b.take(now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retry != 500*time.Millisecond {
		t.Fatalf("retry = %v, want 500ms (1 token at 2/s)", retry)
	}
	if ok, _ := b.take(now.Add(time.Second)); !ok {
		t.Fatal("refilled bucket refused")
	}
	var unlimited *bucket
	if ok, _ := unlimited.take(now); !ok {
		t.Fatal("nil bucket must admit")
	}
}

// TestTenantOverflow pins the bounded registry: past MaxTenants every
// new name shares the overflow tenant instead of growing the map.
func TestTenantOverflow(t *testing.T) {
	ts := newTenantSet(1, 1, 2)
	a, b := ts.get("a"), ts.get("b")
	c, d := ts.get("c"), ts.get("d")
	if a == b || a.name != "a" {
		t.Fatal("distinct tenants collapsed early")
	}
	if c != d || c.name != "overflow" {
		t.Fatal("overflow tenants must share one quota")
	}
	if got := ts.get("a"); got != a {
		t.Fatal("existing tenant lost its identity")
	}
}

// stalledPost starts a request whose body sends prefix and then stalls,
// held open until the returned writer is closed; the request's recorder
// arrives on the channel once its handler returns.
func stalledPost(s *Server, path, prefix string) (*io.PipeWriter, <-chan *httptest.ResponseRecorder) {
	pr, pw := io.Pipe()
	served := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, pr))
		served <- w
	}()
	go func() { _, _ = io.WriteString(pw, prefix) }()
	return pw, served
}

// TestStalledBodyDeadline: a body that stalls mid-upload cannot outlive
// the request's deadline on either endpoint — the handler answers 504,
// not a 400 for the cut-off read, well within a second.
func TestStalledBodyDeadline(t *testing.T) {
	for _, path := range []string{"/v1/schedule", "/v1/stream"} {
		t.Run(path, func(t *testing.T) {
			s := newTestServer(t, nil, nil)
			start := time.Now()
			pw, served := stalledPost(s, path+"?deadline_ms=50", "b0:\n\tadd %o0, 1, %o1\n")
			defer pw.Close()
			select {
			case w := <-served:
				if w.Code != http.StatusGatewayTimeout {
					t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
				}
			case <-time.After(time.Second):
				t.Fatalf("a stalled body held its handler %v past a 50ms deadline", time.Since(start))
			}
			if n := s.Stats().DeadlineHits; n != 1 {
				t.Fatalf("deadline_hits = %d, want 1", n)
			}
		})
	}
}

// TestDrainForcedStalledSchedule: a forced drain with a stalled
// /v1/schedule upload in flight returns within its budget. The upload
// is read inside the engine run, which Engine.Close waits for, so the
// drain's cancellation must reach the stalled read.
func TestDrainForcedStalledSchedule(t *testing.T) {
	s := newTestServer(t, func(c *engine.Config) { c.CachePath = filepath.Join(t.TempDir(), "sched.cache") }, nil)
	pw, served := stalledPost(s, "/v1/schedule", corpusAsm(3))
	defer pw.Close()
	for s.Stats().QueueDepth == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // into the stalled read

	const budget = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	rep := s.Drain(ctx)
	if took := time.Since(start); took > budget+time.Second {
		t.Fatalf("forced drain took %v on a %v budget", took, budget)
	}
	if !rep.Forced || rep.CloseErr != nil {
		t.Fatalf("drain report %+v, want forced with a clean close", rep)
	}
	if w := <-served; w.Code != http.StatusGatewayTimeout {
		t.Fatalf("stalled upload answered %d, want 504: %s", w.Code, w.Body.String())
	}
}

// reusedWriter is a ResponseWriter that keeps its buffers across
// requests, so a request's allocations are the handler's own.
type reusedWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *reusedWriter) Header() http.Header         { return w.h }
func (w *reusedWriter) WriteHeader(code int)        { w.code = code }
func (w *reusedWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// TestWarmRequestAllocsBounded: a warm request allocates a constant
// number of times — the same bound for a 32-block and a 128-block unit,
// on both endpoints — since the scanner, its block storage and the
// rendered output are all recycled.
func TestWarmRequestAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const bound = 40
	s := newTestServer(t, nil, nil)
	for _, path := range []string{"/v1/schedule", "/v1/stream"} {
		for _, n := range []int{32, 128} {
			body := corpusAsm(n)
			rd := strings.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, path, rd)
			w := &reusedWriter{h: http.Header{}}
			serve := func() {
				rd.Reset(body)
				w.code = http.StatusOK
				w.body.Reset()
				s.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", path, w.code, w.body.String())
				}
			}
			for range 4 {
				serve()
			}
			allocs := testing.AllocsPerRun(50, serve)
			t.Logf("%s, %d blocks: %v allocations per warm request", path, n, allocs)
			if allocs > bound {
				t.Fatalf("%s: a warm %d-block request allocates %v times, bound %d", path, n, allocs, bound)
			}
		}
	}
}

// TestCancelledStatesNotReused cancels 16 stalled requests, then lets
// every abandoned body read complete — each writes into the buffer it
// was handed — while fresh requests with the same body are served. A
// request state pooled while its read could still write would corrupt
// a fresh request's scan (and trip the race detector).
func TestCancelledStatesNotReused(t *testing.T) {
	s := newTestServer(t, nil, nil)
	body := corpusAsm(40)
	want := referenceOrders(t, body)
	half := len(body) / 2
	paths := []string{"/v1/schedule", "/v1/stream"}
	var stalled []*io.PipeWriter
	for i := range 16 {
		pw, served := stalledPost(s, paths[i%2]+"?deadline_ms=20", body[:half])
		if w := <-served; w.Code != http.StatusGatewayTimeout {
			t.Fatalf("stalled request %d: status %d, want 504: %s", i, w.Code, w.Body.String())
		}
		stalled = append(stalled, pw)
	}
	var wg sync.WaitGroup
	for _, pw := range stalled {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = io.WriteString(pw, body[half:])
			pw.Close()
		}()
	}
	for i := range 16 {
		if i%2 == 0 {
			requireOrders(t, decodeSchedule(t, post(s, "/v1/schedule", body, nil)).Results, want)
			continue
		}
		w := post(s, "/v1/stream", body, nil)
		lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
		var got []blockResult
		for _, line := range lines[:len(lines)-1] {
			var rec streamRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			got = append(got, blockResult{Order: rec.Order})
		}
		requireOrders(t, got, want)
	}
	wg.Wait()
}
