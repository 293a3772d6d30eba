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
//     onto Engine.RunSource cancellation, and a stalled upload cannot
//     outlive it; the engine's
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

	// states pools request state (reqState) across requests.
	states sync.Pool
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
	s.states.New = func() any {
		q := &reqState{srv: s, body: bodyReader{res: make(chan readResult, 1)}}
		q.sinkFn = q.sink
		return q
	}
	// /v1/schedule answers a unit as one JSON document; /v1/stream one
	// NDJSON line per block as the body arrives, then a {"done":…} line.
	s.mux.HandleFunc("/v1/schedule", s.guard(func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, false) }))
	s.mux.HandleFunc("/v1/stream", s.guard(func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, true) }))
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
		s.jsonError(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("internal error: %v", p)})
	}
}

// errorBody is the JSON shape of every non-2xx answer.
type errorBody struct {
	Error string           `json:"error"`
	Line  int              `json:"line,omitempty"`  // malformed-asm line number
	Rungs map[string]int64 `json:"rungs,omitempty"` // attached to 5xx engine faults
}

// jsonError writes one errorBody.
func (s *Server) jsonError(w http.ResponseWriter, status int, b errorBody) {
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
	s.jsonError(w, http.StatusTooManyRequests, errorBody{Error: msg})
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
// the drain gate, the rate buckets, the in-flight byte reservation and
// the engine queue, whose occupancy (queued: running, or waiting for a
// free worker) sheds past MaxQueue. A refusal is answered here; on
// success the caller calls finish.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (t *tenant, ctx context.Context, finish func(), ok bool) {
	if r.Method != http.MethodPost {
		s.jsonError(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return nil, nil, nil, false
	}
	if !s.admitRequest() {
		s.shedDrain.Add(1)
		s.jsonError(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
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
	if n := s.queued.Add(1); n > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.shedQueue.Add(1)
		s.shedRateLimited(w, time.Second, "engine queue saturated")
		s.releaseBytes(reserve)
		s.wg.Done()
		return nil, nil, nil, false
	}
	ctx, cancel := s.requestCtx(r)
	return t, ctx, func() { cancel(); s.queued.Add(-1); s.releaseBytes(reserve); s.wg.Done() }, true
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
	s.jsonError(w, code, errorBody{Error: err.Error(), Line: parseLine(err)})
}

// parseLine is a scan error's line number, 0 when it is not a parse
// error.
func parseLine(err error) int {
	var pe *asm.ParseError
	if errors.As(err, &pe) {
		return pe.Line
	}
	return 0
}

// runFailed classifies an engine error: the request's own deadline or
// disconnect is a 504 on the client, anything else is a 500 engine
// fault answered with the daemon's rung histogram for triage.
func (s *Server) runFailed(w http.ResponseWriter, ctx context.Context, err error) {
	if ctx.Err() != nil {
		s.deadlineHits.Add(1)
		s.jsonError(w, http.StatusGatewayTimeout, errorBody{Error: "deadline exceeded: " + ctx.Err().Error()})
		return
	}
	s.engineFailures.Add(1)
	s.jsonError(w, http.StatusInternalServerError, errorBody{Error: "engine: " + err.Error(), Rungs: s.rungHistogram()})
}

// serve is both scheduling endpoints' one path: a pooled reqState feeds
// the body to Engine.RunSource, whose claiming worker scans each block
// itself, and the sink renders the outcomes. Nothing is written before
// the first record (/v1/stream) or the end of the run (/v1/schedule),
// so until then any failure — a malformed, cut-off or empty body, a
// deadline spent waiting for a worker or in a stalled upload — gets its
// own status (400 with the parse line, 413, 504, 500) and no results;
// after it, /v1/stream's trailer carries the failure in-band.
//
//sched:cancellable
func (s *Server) serve(w http.ResponseWriter, r *http.Request, stream bool) {
	t, ctx, finish, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer finish()
	// Records go out while the body is still being read, and an HTTP/1.1
	// server not told so discards up to 256 KiB of unread body with the
	// header. A ResponseRecorder answers ErrNotSupported: it discards none.
	if stream {
		if err := http.NewResponseController(w).EnableFullDuplex(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			s.jsonError(w, http.StatusInternalServerError, errorBody{Error: "cannot stream: " + err.Error()})
			return
		}
	}
	q := s.states.Get().(*reqState)
	q.reset(ctx, w, r.Body, s.cfg.MaxBody, stream)
	st, err := s.eng.RunSource(ctx, &q.sc, q.sinkFn)
	s.tallyRun(&st)
	s.answer(ctx, t, q, &st, err)
	q.release(&s.states)
}

// answer finishes a request once its run has returned: the trailer of
// a stream whose status line is out, else a status of its own. A read
// the deadline cut short is the deadline's failure, not the body's.
func (s *Server) answer(ctx context.Context, t *tenant, q *reqState, st *engine.Stats, runErr error) {
	scanErr := q.sc.Err()
	if ctx.Err() != nil {
		scanErr = nil
	}
	if q.started {
		err := scanErr
		switch {
		case err != nil:
			s.badRequests.Add(1)
		case runErr != nil && ctx.Err() != nil:
			err = runErr
			s.deadlineHits.Add(1)
		case runErr != nil:
			err = runErr
			s.engineFailures.Add(1)
		default:
			s.served.Add(1)
			t.served.Add(1)
		}
		q.out = appendTrailer(q.out, st, err)
		q.flush()
		return
	}
	switch {
	case scanErr != nil:
		s.badBody(q.w, scanErr)
	case runErr != nil:
		s.runFailed(q.w, ctx, runErr)
	case st.Blocks == 0:
		s.badRequests.Add(1)
		s.jsonError(q.w, http.StatusBadRequest, errorBody{Error: "no basic blocks in request body"})
	default: // /v1/schedule: a stream with blocks has started
		s.served.Add(1)
		t.served.Add(1)
		q.doc = appendScheduleHead(q.doc[:0], st)
		q.doc = append(append(q.doc, q.out...), "]}\n"...)
		q.w.Header().Set("Content-Type", "application/json")
		_, _ = q.w.Write(q.doc)
	}
}

// reqState is one scheduling request's state, pooled across requests:
// the scanner with its line buffer and name table, the body reader, and
// the output: a stream's burst, or a schedule's rows (out) and document.
type reqState struct {
	srv     *Server
	sc      asm.BlockScanner
	body    bodyReader
	sinkFn  func(engine.BlockOutcome) // sink, bound once per state
	w       http.ResponseWriter
	stream  bool
	started bool // the stream's status line is out
	out     []byte
	doc     []byte
}

// maxPooledOut caps the output buffers a pooled state keeps: one
// outsized response does not pin its buffer for every later request.
const maxPooledOut = 64 << 10

// reset readies q for one request: the body is read through the
// request's deadline and then the size cap.
func (q *reqState) reset(ctx context.Context, w http.ResponseWriter, body io.Reader, maxBody int64, stream bool) {
	q.body.r, q.body.ctx = body, ctx
	q.sc.Reset(http.MaxBytesReader(w, &q.body, maxBody))
	q.w, q.stream, q.started = w, stream, false
	q.out, q.doc = q.out[:0], q.doc[:0]
}

// release returns q to pool, dropping what its request referenced. A
// state whose body read was abandoned is never pooled again: that read
// may still write into the scanner's line buffer.
func (q *reqState) release(pool *sync.Pool) {
	if q.body.abandoned {
		return
	}
	q.sc.Reset(nil)
	q.body.r, q.body.ctx, q.w = nil, nil, nil
	if cap(q.out) > maxPooledOut || cap(q.doc) > maxPooledOut {
		q.out, q.doc = nil, nil
	}
	pool.Put(q)
}

// sink renders one outcome on the engine's emitter goroutine, which
// RunSource joins before it returns. /v1/stream writes each burst out
// as it ends; /v1/schedule collects its rows for one write at the end.
func (q *reqState) sink(o engine.BlockOutcome) {
	q.srv.rungs[o.Rung].Add(1)
	if q.stream {
		q.out = append(appendRecord(q.out, &o, true), '\n')
		if o.BurstEnd {
			q.flush()
		}
		return
	}
	if len(q.out) > 0 {
		q.out = append(q.out, ',')
	}
	q.out = appendRecord(q.out, &o, false)
}

// flush writes the stream's rendered lines out, after the status line
// the first time.
func (q *reqState) flush() {
	if !q.started {
		q.started = true
		q.w.Header().Set("Content-Type", "application/x-ndjson")
		q.w.WriteHeader(http.StatusOK)
	}
	_, _ = q.w.Write(q.out)
	if f, ok := q.w.(http.Flusher); ok {
		f.Flush()
	}
	q.out = q.out[:0]
}

// bodyReader reads the request body on a goroutine of its own, one per
// Read, so the request's deadline or a forced drain interrupts a
// stalled upload: Read then returns ctx's error and abandons the read,
// which keeps the buffer it was given until the body yields or closes.
type bodyReader struct {
	r         io.Reader
	ctx       context.Context
	res       chan readResult // capacity 1: an abandoned read never blocks
	abandoned bool
}

type readResult struct {
	n   int
	err error
}

func (b *bodyReader) Read(p []byte) (int, error) {
	go b.fill(p)
	select {
	case r := <-b.res:
		return r.n, r.err
	case <-b.ctx.Done():
		b.abandoned = true
		return 0, b.ctx.Err()
	}
}

func (b *bodyReader) fill(p []byte) {
	n, err := b.r.Read(p)
	b.res <- readResult{n, err}
}

// Close is a no-op: net/http closes the request body itself.
func (b *bodyReader) Close() error { return nil }

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
		s.jsonError(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
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
