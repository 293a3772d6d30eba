// Package server is the scheduling daemon's HTTP layer: it accepts
// textual assembly over POST — whole units on /v1/schedule, streamed
// block-by-block NDJSON on /v1/stream — and drives one shared
// engine.Engine, hardened for hostile conditions end to end:
//
//   - Admission control: a global token bucket plus bounded per-tenant
//     buckets (X-Tenant header) shed excess load with 429 and a
//     truthful Retry-After; a bounded engine queue sheds with 429 when
//     occupancy saturates; in-flight request bytes are accounted
//     against a hard cap. Admitted requests run concurrently, each on
//     the share of the engine's workers free when it starts.
//   - Deadlines: every request runs under a context deadline
//     (?deadline_ms= or X-Deadline-Ms, clamped to a maximum), mapped
//     onto Engine.RunCtx/RunStream cancellation; the engine's
//     Config.BlockTimeout independently bounds any single block, so an
//     overrun degrades to the ladder's identity rung instead of
//     hanging a worker.
//   - Fault isolation: every handler runs behind a recover boundary —
//     a panic becomes a one-line 500 and a tally, never a dead daemon.
//   - Error taxonomy: malformed assembly is the client's fault (400,
//     with the scanner's sticky line-numbered diagnosis), overload is
//     429/503, deadline overrun 504, engine faults 500 with the
//     daemon's rung histogram attached for triage.
//   - Lifecycle: /healthz is process liveness, /readyz flips to 503
//     the moment a drain starts, and Drain stops admission, waits out
//     in-flight requests (cancelling them once its budget runs out),
//     and flushes the persistent cache tier via Engine.Close so the
//     next process warm-starts from disk.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"daginsched/internal/asm"
	"daginsched/internal/block"
	"daginsched/internal/engine"
)

// Config configures a Server. The zero value of every limit picks a
// safe default; only Engine is required.
type Config struct {
	// Engine is the shared scheduling engine. Required. The server
	// owns its lifecycle from Serve through Drain: configure it with
	// KeepOrders (responses carry schedules) and, for warm restarts,
	// CachePath.
	Engine *engine.Engine
	// MaxQueue bounds engine-queue occupancy: the requests admitted to
	// the engine at once, running or waiting for a free worker; past
	// it requests shed with 429. <= 0 means 8.
	MaxQueue int
	// MaxBody bounds one request body in bytes (413 past it).
	// <= 0 means 8 MiB.
	MaxBody int64
	// MaxInflightBytes bounds the sum of admitted request-body
	// reservations (429 past it). <= 0 means 64 MiB.
	MaxInflightBytes int64
	// Rate/Burst configure the global admission bucket in requests per
	// second; Rate <= 0 disables global rate limiting.
	Rate, Burst float64
	// TenantRate/TenantBurst configure each tenant's bucket;
	// TenantRate <= 0 disables per-tenant quotas.
	TenantRate, TenantBurst float64
	// MaxTenants bounds the distinct-tenant registry (past it new
	// names share one overflow quota). <= 0 means 1024.
	MaxTenants int
	// DefaultDeadline applies when a request names none; <= 0 means
	// 10s. MaxDeadline clamps what a request may ask for; <= 0 means
	// 60s.
	DefaultDeadline, MaxDeadline time.Duration

	// now is the admission clock, a test seam. Nil means time.Now.
	now func() time.Time
}

// TenantCounts is one tenant's row in the /stats snapshot.
type TenantCounts struct {
	Served int64 `json:"served"`
	Shed   int64 `json:"shed"`
}

// ShedCounts breaks refused requests down by which guard refused.
type ShedCounts struct {
	Queue  int64 `json:"queue"`  // engine queue saturated
	Rate   int64 `json:"rate"`   // global bucket empty
	Tenant int64 `json:"tenant"` // tenant bucket empty
	Bytes  int64 `json:"bytes"`  // in-flight byte cap
	Drain  int64 `json:"drain"`  // refused after drain began
}

// EngineCounts is the cumulative sum of engine.Stats hardening and
// cache tallies over every run the daemon has served, plus the
// persistent cache tier's write-behind backlog: DiskPending schedules
// computed but not yet in the cache file (zero once the flusher has
// caught up).
type EngineCounts struct {
	CacheHits      int64 `json:"cache_hits"`
	DiskHits       int64 `json:"disk_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	Quarantines    int64 `json:"quarantines"`
	Demotions      int64 `json:"demotions"`
	GateFailures   int64 `json:"gate_failures"`
	FaultsInjected int64 `json:"faults_injected"`
	DegradedBlocks int64 `json:"degraded_blocks"`
	DiskPending    int64 `json:"disk_pending"`
}

// Snapshot is the /stats payload.
type Snapshot struct {
	Draining         bool                    `json:"draining"`
	QueueDepth       int64                   `json:"queue_depth"`
	MaxQueue         int                     `json:"max_queue"`
	InflightBytes    int64                   `json:"inflight_bytes"`
	MaxInflightBytes int64                   `json:"max_inflight_bytes"`
	Served           int64                   `json:"served"`
	Blocks           int64                   `json:"blocks"`
	Insts            int64                   `json:"insts"`
	Shed             ShedCounts              `json:"shed"`
	BadRequests      int64                   `json:"bad_requests"`
	DeadlineHits     int64                   `json:"deadline_hits"`
	Panics           int64                   `json:"panics"`
	EngineFailures   int64                   `json:"engine_failures"`
	Rungs            map[string]int64        `json:"rungs"`
	Engine           EngineCounts            `json:"engine"`
	Tenants          map[string]TenantCounts `json:"tenants,omitempty"`
}

// DrainReport summarizes one graceful drain.
type DrainReport struct {
	Served   int64 // requests served over the daemon's lifetime
	Shed     int64 // requests refused over the daemon's lifetime
	Forced   bool  // in-flight requests outlived the drain context
	CloseErr error // Engine.Close outcome (nil on a clean flush)
}

// String renders the one-line drain summary schedd logs.
func (d DrainReport) String() string {
	s := fmt.Sprintf("drained: served=%d shed=%d", d.Served, d.Shed)
	if d.Forced {
		s += " forced=true"
	}
	if d.CloseErr != nil {
		s += " close_err=" + strconv.Quote(d.CloseErr.Error())
	}
	return s
}

// Server is the daemon. Create with New, mount as an http.Handler,
// call Drain exactly once on the way out.
type Server struct {
	cfg     Config
	eng     *engine.Engine
	mux     *http.ServeMux
	global  *bucket
	tenants *tenantSet

	// queued counts the requests in the engine, running or waiting
	// for a worker: the saturation signal MaxQueue sheds on.
	queued atomic.Int64
	// life is the server's lifetime context, joined to every request
	// context; Drain cancels it (stop) when its budget runs out.
	life context.Context
	stop context.CancelFunc

	// reqMu guards the admission gate: whether the daemon is still
	// accepting work, and the in-flight byte reservation. wg tracks
	// admitted requests so Drain can wait them out.
	reqMu    sync.Mutex //sched:lock-rank 1
	draining bool       //sched:guarded-by reqMu
	inflight int64      //sched:guarded-by reqMu
	wg       sync.WaitGroup

	// Monotone tallies, all atomics so handlers never contend.
	served, blocks, insts                     atomic.Int64
	shedQueue, shedRate, shedTenant           atomic.Int64
	shedBytes, shedDrain                      atomic.Int64
	badRequests, deadlineHits, panics         atomic.Int64
	engineFailures                            atomic.Int64
	rungs                                     [engine.RungIdentity + 1]atomic.Int64
	cacheHits, diskHits, cacheMisses          atomic.Int64
	quarantines, demotions, gateFails, faults atomic.Int64
	degraded                                  atomic.Int64
}

// New validates cfg, fills its defaults, and builds the handler tree.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 8
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	if cfg.MaxInflightBytes <= 0 {
		cfg.MaxInflightBytes = 64 << 20
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 1024
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 10 * time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 60 * time.Second
	}
	if cfg.Burst < cfg.Rate {
		cfg.Burst = cfg.Rate
	}
	if cfg.TenantBurst < cfg.TenantRate {
		cfg.TenantBurst = cfg.TenantRate
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Server{
		cfg:     cfg,
		eng:     cfg.Engine,
		mux:     http.NewServeMux(),
		global:  newBucket(cfg.Rate, cfg.Burst),
		tenants: newTenantSet(cfg.TenantRate, cfg.TenantBurst, cfg.MaxTenants),
	}
	s.life, s.stop = context.WithCancel(context.Background())
	s.mux.HandleFunc("/v1/schedule", s.guard(s.handleSchedule))
	s.mux.HandleFunc("/v1/stream", s.guard(s.handleStream))
	s.mux.HandleFunc("/healthz", s.guard(s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.guard(s.handleReadyz))
	s.mux.HandleFunc("/stats", s.guard(s.handleStats))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// guard wraps h in the daemon's panic boundary: a panicking handler
// answers 500 with a one-line diagnostic and bumps a tally; the daemon
// lives on. The deferred-unlock discipline every server lock follows
// (enforced by the panicsafe lint pass over the handler roots) is what
// makes recovery safe — a recovered panic can never strand a held
// mutex.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer s.recoverPanic(w)
		h(w, r)
	}
}

// recoverPanic is the recover half of guard, deferred around every
// handler.
//
//sched:recover-boundary
func (s *Server) recoverPanic(w http.ResponseWriter) {
	if p := recover(); p != nil {
		s.panics.Add(1)
		s.jsonError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p), nil)
	}
}

// errorBody is the JSON shape of every non-2xx answer.
type errorBody struct {
	Error string           `json:"error"`
	Line  int              `json:"line,omitempty"`  // malformed-asm line number
	Rungs map[string]int64 `json:"rungs,omitempty"` // attached to 5xx engine faults
}

// jsonError writes one errorBody. extra, when non-nil, is mutated onto
// the body before encoding.
func (s *Server) jsonError(w http.ResponseWriter, status int, msg string, mutate func(*errorBody)) {
	b := errorBody{Error: msg}
	if mutate != nil {
		mutate(&b)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding a flat struct cannot fail; the write may (client gone),
	// which is the client's problem.
	_ = json.NewEncoder(w).Encode(&b)
}

// rungHistogram snapshots the served-rung tallies.
func (s *Server) rungHistogram() map[string]int64 {
	h := make(map[string]int64, len(s.rungs))
	for i := range s.rungs {
		if n := s.rungs[i].Load(); n != 0 {
			h[engine.Rung(i).String()] = n
		}
	}
	return h
}

// admitRequest is the drain gate: it registers one in-flight request
// unless the daemon has stopped accepting. The wg.Add must happen
// under the same critical section as the draining check, or a request
// could slip in after Drain's final Wait observed zero.
func (s *Server) admitRequest() bool {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if s.draining {
		return false
	}
	s.wg.Add(1)
	return true
}

// reserveBytes accounts n request bytes against the in-flight cap.
func (s *Server) reserveBytes(n int64) bool {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if s.inflight+n > s.cfg.MaxInflightBytes {
		return false
	}
	s.inflight += n
	return true
}

// releaseBytes returns a reserveBytes reservation.
func (s *Server) releaseBytes(n int64) {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	s.inflight -= n
}

// bodyReserve is the pessimistic size a request reserves before its
// body is read: the declared Content-Length when one is present and
// plausible, else the full per-request cap (chunked uploads of
// unknown size must assume the worst).
func (s *Server) bodyReserve(r *http.Request) int64 {
	if n := r.ContentLength; n >= 0 && n <= s.cfg.MaxBody {
		return n
	}
	return s.cfg.MaxBody
}

// requestCtx derives the per-request deadline context: the client's
// ?deadline_ms= (or X-Deadline-Ms header) clamped to MaxDeadline,
// DefaultDeadline when unstated, layered over the connection context
// so a vanished client cancels the run too, and cancelled with the
// server's lifetime context by a forced drain.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	raw := r.URL.Query().Get("deadline_ms")
	if raw == "" {
		raw = r.Header.Get("X-Deadline-Ms")
	}
	if raw != "" {
		if ms, err := strconv.ParseInt(raw, 10, 64); err == nil && ms > 0 {
			// Clamp before converting: a huge ms overflows Duration.
			d = time.Duration(min(ms, s.cfg.MaxDeadline.Milliseconds())) * time.Millisecond
		}
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	unjoin := context.AfterFunc(s.life, cancel)
	return ctx, func() { unjoin(); cancel() }
}

// tenantFor resolves the request's quota scope from the X-Tenant
// header ("anon" when absent).
func (s *Server) tenantFor(r *http.Request) *tenant {
	name := strings.TrimSpace(r.Header.Get("X-Tenant"))
	if name == "" {
		name = "anon"
	}
	return s.tenants.get(name)
}

// shedRateLimited answers a bucket refusal: 429 with a truthful,
// ceiling-rounded Retry-After.
func (s *Server) shedRateLimited(w http.ResponseWriter, retry time.Duration, msg string) {
	secs := int64((retry + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	s.jsonError(w, http.StatusTooManyRequests, msg, nil)
}

// takeBuckets runs the global then tenant bucket in order, shedding
// with 429 on the first refusal. It reports whether the request may
// proceed.
func (s *Server) takeBuckets(w http.ResponseWriter, t *tenant) bool {
	now := s.cfg.now()
	if ok, retry := s.global.take(now); !ok {
		s.shedRate.Add(1)
		s.shedRateLimited(w, retry, "rate limit exceeded")
		return false
	}
	if ok, retry := t.tb.take(now); !ok {
		s.shedTenant.Add(1)
		t.shed.Add(1)
		s.shedRateLimited(w, retry, "tenant quota exceeded: "+t.name)
		return false
	}
	return true
}

// admit is the scheduling endpoints' admission prologue: POST only,
// the drain gate, the rate buckets and the in-flight byte reservation.
// A refusal is answered here; on success the caller calls finish.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (t *tenant, ctx context.Context, finish func(), ok bool) {
	if r.Method != http.MethodPost {
		s.jsonError(w, http.StatusMethodNotAllowed, "POST only", nil)
		return nil, nil, nil, false
	}
	if !s.admitRequest() {
		s.shedDrain.Add(1)
		s.jsonError(w, http.StatusServiceUnavailable, "draining", nil)
		return nil, nil, nil, false
	}
	t, reserve := s.tenantFor(r), s.bodyReserve(r)
	if !s.takeBuckets(w, t) {
		s.wg.Done()
		return nil, nil, nil, false
	}
	if !s.reserveBytes(reserve) {
		s.shedBytes.Add(1)
		s.shedRateLimited(w, time.Second, "in-flight byte budget exhausted")
		s.wg.Done()
		return nil, nil, nil, false
	}
	ctx, cancel := s.requestCtx(r)
	return t, ctx, func() { cancel(); s.releaseBytes(reserve); s.wg.Done() }, true
}

// acquireEngine counts the request into the engine queue, refusing
// with a 429 (already written) past MaxQueue occupants. The caller
// leaves the queue with s.queued.Add(-1) once its run returns.
func (s *Server) acquireEngine(w http.ResponseWriter) bool {
	if n := s.queued.Add(1); n > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.shedQueue.Add(1)
		s.shedRateLimited(w, time.Second, "engine queue saturated")
		return false
	}
	return true
}

// tallyRun folds one run's engine.Stats into the daemon's cumulative
// counters.
func (s *Server) tallyRun(st *engine.Stats) {
	s.cacheHits.Add(st.CacheHits)
	s.diskHits.Add(st.DiskHits)
	s.cacheMisses.Add(st.CacheMisses)
	s.quarantines.Add(st.Quarantines)
	s.demotions.Add(st.Demotions)
	s.gateFails.Add(st.GateFailures)
	s.faults.Add(st.FaultsInjected)
	s.degraded.Add(st.DegradedBlocks)
	s.blocks.Add(int64(st.Blocks))
	s.insts.Add(st.Insts)
}

// scanBlocks partitions an assembly body into basic blocks with the
// streaming scanner (same boundary rules as Parse+Partition, but the
// error is the scanner's sticky line-numbered one), polling ctx
// between blocks so a dead request stops burning the parser.
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

// badBody answers a body that could not be read or scanned: a 413
// when the size cap cut it off, else a 400 (a truncated or aborted
// upload, or malformed assembly) carrying the parse error's line when
// it has one.
func (s *Server) badBody(w http.ResponseWriter, err error) {
	s.badRequests.Add(1)
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	var pe *asm.ParseError
	line := 0
	if errors.As(err, &pe) {
		line = pe.Line
	}
	s.jsonError(w, code, err.Error(), func(b *errorBody) { b.Line = line })
}

// runFailed classifies an engine error: the request's own deadline or
// disconnect is a 504 on the client, anything else is a 500 engine
// fault answered with the daemon's rung histogram for triage.
func (s *Server) runFailed(w http.ResponseWriter, ctx context.Context, err error) {
	if ctx.Err() != nil {
		s.deadlineHits.Add(1)
		s.jsonError(w, http.StatusGatewayTimeout, "deadline exceeded: "+ctx.Err().Error(), nil)
		return
	}
	s.engineFailures.Add(1)
	hist := s.rungHistogram()
	s.jsonError(w, http.StatusInternalServerError, "engine: "+err.Error(), func(b *errorBody) { b.Rungs = hist })
}

// handleSchedule is the batch endpoint: the whole body is one assembly
// unit, scheduled in one engine run, answered as JSON with every
// block's schedule.
//
//sched:cancellable
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	t, ctx, finish, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer finish()
	body, err := readBody(w, r, s.cfg.MaxBody)
	if err != nil {
		s.badBody(w, err)
		return
	}
	blocks, err := scanBlocks(ctx, body)
	if err != nil {
		if ctx.Err() != nil {
			s.deadlineHits.Add(1)
			s.jsonError(w, http.StatusGatewayTimeout, "deadline exceeded: "+err.Error(), nil)
			return
		}
		s.badBody(w, err)
		return
	}
	if len(blocks) == 0 {
		s.badRequests.Add(1)
		s.jsonError(w, http.StatusBadRequest, "no basic blocks in request body", nil)
		return
	}

	if !s.acquireEngine(w) {
		return
	}
	res, err := s.eng.RunCtx(ctx, blocks)
	s.queued.Add(-1)
	if err != nil {
		s.runFailed(w, ctx, err)
		return
	}

	s.tallyRun(&res.Stats)
	resp := scheduleResponse{
		Blocks:      res.Stats.Blocks,
		Insts:       res.Stats.Insts,
		TotalCycles: res.Stats.TotalCycles,
		CacheHits:   res.Stats.CacheHits,
		DiskHits:    res.Stats.DiskHits,
		Results:     make([]blockResult, len(blocks)),
	}
	for i, b := range blocks {
		br := blockResult{Name: b.Name, Cycles: res.Cycles[i], Arcs: res.Arcs[i], Rung: res.Rungs[i].String()}
		s.rungs[res.Rungs[i]].Add(1)
		if len(res.Orders) > i {
			br.Order = res.Orders[i]
		}
		resp.Results[i] = br
	}
	s.served.Add(1)
	t.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&resp)
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
// plus the scan error when the body went malformed mid-stream (the
// status line is long gone by then, so the taxonomy rides in-band).
type streamTrailer struct {
	Done     bool   `json:"done"`
	Blocks   int    `json:"blocks"`
	Insts    int64  `json:"insts"`
	Degraded int64  `json:"degraded"`
	Error    string `json:"error,omitempty"`
	Line     int    `json:"line,omitempty"`
}

// handleStream is the streaming endpoint: blocks are scheduled as the
// body arrives and answered one NDJSON line each, in arrival order,
// through Engine.RunStream's bounded pipeline — constant memory in the
// stream's length. The first block is scanned before the run so a body
// that is malformed from the start still gets a clean 400, and the
// status line waits for the first record, so a run that fails before
// one (a deadline spent waiting for a worker) gets the same 504 or 500
// as /v1/schedule; a mid-stream scan error terminates the stream with
// an in-band error trailer instead.
//
//sched:cancellable
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	t, ctx, finish, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer finish()

	sc := asm.NewBlockScanner(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	first := &block.Block{}
	ok, err := sc.Next(first)
	if err != nil {
		s.badBody(w, err)
		return
	}
	if !ok {
		s.badRequests.Add(1)
		s.jsonError(w, http.StatusBadRequest, "no basic blocks in request body", nil)
		return
	}

	if !s.acquireEngine(w) {
		return
	}
	defer s.queued.Add(-1)

	// Records are flushed while the body is still being read. An
	// HTTP/1.1 server that is not told so discards up to 256 KiB of the
	// unread body when the header goes out, truncating or misparsing
	// the stream. Writers without the switch, such as a ResponseRecorder,
	// answer ErrNotSupported; they discard nothing, so that is fine.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		s.jsonError(w, http.StatusInternalServerError, "cannot stream: "+err.Error(), nil)
		return
	}
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	started := false // the status line waits for the first record

	src := make(chan *block.Block)
	scanErrCh := make(chan error, 1)
	go s.produceBlocks(ctx, sc, first, src, scanErrCh)

	// The sink runs serially on RunStream's emitter goroutine, which
	// RunStream joins before returning — enc and started are never used
	// from two goroutines at once.
	sink := func(o engine.BlockOutcome) {
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		s.rungs[o.Rung].Add(1)
		rec := streamRecord{Seq: o.Seq, Cycles: o.Cycles, Arcs: o.Arcs, Rung: o.Rung.String(), Order: o.Order}
		if o.Block != nil {
			rec.Name = o.Block.Name
		}
		_ = enc.Encode(&rec)
		if flusher != nil {
			flusher.Flush()
		}
	}
	st, runErr := s.eng.RunStream(ctx, src, sink)
	var scanErr error
	select {
	case scanErr = <-scanErrCh:
	default:
	}

	s.tallyRun(&st)
	if !started && runErr != nil {
		s.runFailed(w, ctx, runErr)
		return
	}
	trailer := streamTrailer{Done: true, Blocks: st.Blocks, Insts: st.Insts, Degraded: st.DegradedBlocks}
	switch {
	case scanErr != nil:
		s.badRequests.Add(1)
		trailer.Done = false
		trailer.Error = scanErr.Error()
		var pe *asm.ParseError
		if errors.As(scanErr, &pe) {
			trailer.Line = pe.Line
		}
	case runErr != nil:
		trailer.Done = false
		trailer.Error = runErr.Error()
		if ctx.Err() != nil {
			s.deadlineHits.Add(1)
		} else {
			s.engineFailures.Add(1)
		}
	default:
		s.served.Add(1)
		t.served.Add(1)
	}
	_ = enc.Encode(&trailer)
	if flusher != nil {
		flusher.Flush()
	}
}

// produceBlocks feeds the scanner's remaining blocks (first leading)
// onto src for RunStream, closing src at end of body or on the scan
// error it parks in errCh. The send before close ordering is what
// lets the handler read errCh race-free after RunStream returns.
//
//sched:cancellable
func (s *Server) produceBlocks(ctx context.Context, sc *asm.BlockScanner, first *block.Block, src chan<- *block.Block, errCh chan<- error) {
	defer close(src)
	done := ctx.Done()
	select {
	case src <- first:
	case <-done:
		return
	}
	for {
		b := &block.Block{}
		ok, err := sc.Next(b)
		if err != nil {
			errCh <- err
			return
		}
		if !ok {
			return
		}
		select {
		case src <- b:
		case <-done:
			return
		}
	}
}

// handleHealthz is process liveness: a daemon that can answer at all
// answers 200, draining or not.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is admission readiness: 200 while accepting, 503 the
// moment a drain begins — the signal a load balancer keys on.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.reqMu.Lock()
	draining := s.draining
	s.reqMu.Unlock()
	if draining {
		s.jsonError(w, http.StatusServiceUnavailable, "draining", nil)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

// handleStats answers the full Snapshot.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&snap)
}

// Stats assembles the daemon's observable state.
func (s *Server) Stats() Snapshot {
	s.reqMu.Lock()
	draining, inflight := s.draining, s.inflight
	s.reqMu.Unlock()
	snap := Snapshot{
		Draining:         draining,
		QueueDepth:       s.queued.Load(),
		MaxQueue:         s.cfg.MaxQueue,
		InflightBytes:    inflight,
		MaxInflightBytes: s.cfg.MaxInflightBytes,
		Served:           s.served.Load(),
		Blocks:           s.blocks.Load(),
		Insts:            s.insts.Load(),
		Shed: ShedCounts{
			Queue:  s.shedQueue.Load(),
			Rate:   s.shedRate.Load(),
			Tenant: s.shedTenant.Load(),
			Bytes:  s.shedBytes.Load(),
			Drain:  s.shedDrain.Load(),
		},
		BadRequests:    s.badRequests.Load(),
		DeadlineHits:   s.deadlineHits.Load(),
		Panics:         s.panics.Load(),
		EngineFailures: s.engineFailures.Load(),
		Rungs:          s.rungHistogram(),
		Engine: EngineCounts{
			CacheHits:      s.cacheHits.Load(),
			DiskHits:       s.diskHits.Load(),
			CacheMisses:    s.cacheMisses.Load(),
			Quarantines:    s.quarantines.Load(),
			Demotions:      s.demotions.Load(),
			GateFailures:   s.gateFails.Load(),
			FaultsInjected: s.faults.Load(),
			DegradedBlocks: s.degraded.Load(),
			DiskPending:    s.eng.DiskPending(),
		},
		Tenants: make(map[string]TenantCounts),
	}
	s.tenants.snapshot(snap.Tenants)
	return snap
}

// totalShed sums every shed class.
func (s *Server) totalShed() int64 {
	return s.shedQueue.Load() + s.shedRate.Load() + s.shedTenant.Load() +
		s.shedBytes.Load() + s.shedDrain.Load()
}

// Drain is the graceful-shutdown protocol: stop admission (readyz
// flips to 503 and new requests shed immediately), wait for every
// admitted request to finish — bounded by ctx; on an overrun (Forced)
// it cancels every in-flight request, whose runs stop at their next
// block claim — then flush and release the engine's persistent cache
// tier via Engine.Close, which waits for those runs, so the next
// process warm-starts from a complete file. Idempotent: a second Drain
// finds admission already stopped and Close already a no-op.
func (s *Server) Drain(ctx context.Context) DrainReport {
	s.reqMu.Lock()
	s.draining = true
	s.reqMu.Unlock()

	rep := DrainReport{}
	waitDone := make(chan struct{})
	go func() { s.wg.Wait(); close(waitDone) }()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-waitDone:
	case <-ctx.Done():
		rep.Forced = true
		s.stop()
	}
	rep.CloseErr = s.eng.Close()
	rep.Served = s.served.Load()
	rep.Shed = s.totalShed()
	return rep
}

// readBody reads the request body through the per-request size cap.
func readBody(w http.ResponseWriter, r *http.Request, maxBody int64) ([]byte, error) {
	lr := http.MaxBytesReader(w, r.Body, maxBody)
	defer lr.Close()
	return io.ReadAll(lr)
}
