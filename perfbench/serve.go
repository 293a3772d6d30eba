package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/engine"
	"daginsched/internal/machine"
	"daginsched/internal/server"
)

const (
	// serveUnitBlocks is how many labelled blocks one request carries.
	serveUnitBlocks = 32
	// serveWindow splits longer blocks into pieces, as the paper's
	// fpppp-1000 data set does with a larger window. Interleaved across
	// units, the pieces keep request sizes within a few times of each
	// other: with whole blocks one request carries fpppp's
	// 11,750-instruction block and the open-loop tail is a handful of
	// queueing episodes behind it, and with 1000-instruction pieces the
	// tail percentiles sit on the edge of a small class of heavy
	// requests. Cold-batch measures the large blocks.
	serveWindow  = 128
	serveTenants = 3
	// openLoopRate is the open-loop phase's arrival rate in requests per
	// second: a twentieth of the closed-loop capacity measured on a
	// 2-core machine, so queueing stays small and the latency tail is
	// the service time of the larger units, which a slower machine
	// stretches in proportion instead of compounding into queues.
	openLoopRate = 50.0
	// serveBlockTimeout is the daemon's default per-block deadline.
	serveBlockTimeout = 50 * time.Millisecond
	// capacitySlice is the closed-loop throughput sample: capacity is
	// the median over slices of this length.
	capacitySlice = 250 * time.Millisecond
	// closedClients is the closed-loop client count: the daemon's
	// default engine-queue bound, the most requests it admits at once
	// without shedding. Fewer clients (nproc) leave the server idle
	// between a client's answer and its next request, so the phase
	// measured round trips rather than capacity: a quarter lower and
	// four times noisier on a 2-core machine.
	closedClients = 8
	// openShare is the open-loop phase's share of the measured time.
	openShare = 0.8
	// windowRequests is the open-loop latency window in consecutive
	// requests: percentiles are taken per window, then the median over
	// windows, so one stall of the machine moves one window only.
	windowRequests = 60
	// maxOutstanding bounds open-loop requests in flight; past it the
	// generator itself stalls, which shows as lag.
	maxOutstanding = 256
)

// serveLoad runs internal/server in-process on a loopback listener
// with the daemon's defaults (super2, cache on, 50 ms block deadline,
// KeepOrders, no rate limits). Three tenants post 32-block labelled
// units of the reference corpus (windowed at serveWindow instructions),
// alternating /v1/schedule and
// /v1/stream: first open loop at openLoopRate, timed from when each
// request was due, then closed loop with closedClients clients. Set-up starts
// and stops the whole server setupReps times and then sends every unit
// once, which warms the cache; the measured phases are served from it.
type serveLoad struct {
	b         *bench
	model     *machine.Model
	units     []serveUnit // the 32-block units, then one whole-profile unit per profile
	cycle     int         // how many 32-block units the load cycles through
	unitsRef  [][]*block.Block
	crossover int

	eng     *engine.Engine
	srv     *server.Server
	hs      *http.Server
	served  chan error // hs.Serve's return
	addr    string
	client  *http.Client
	handler *timedHandler

	k atomic.Int64 // request sequence number

	mu     sync.Mutex
	bodies map[answerKey][]byte // every distinct answer body
}

type serveUnit struct {
	text   []byte
	blocks []*block.Block // ground truth
	insts  int64
}

// timedHandler times every call into Server.ServeHTTP, keyed by the
// benchmark's request number, and records it as a span of the client
// request that caused it when tracing.
//
// It also lets every request read its body after the answer has begun.
// /v1/stream flushes its first record while the body is still being
// read, and on HTTP/1.1 net/http then discards the unread rest of the
// body (up to 256 KiB) and closes it, so the stream breaks off with a
// parse error or "invalid Read on closed Body", depending on how much
// of the body had arrived: a defect of internal/server that a plain
// http.Server host such as cmd/schedd shows. Full duplex is the host
// setting the endpoint needs; the handler itself runs unchanged.
type timedHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]

	mu   sync.Mutex
	durs map[int64]time.Duration
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
		http.Error(w, "benchmark host: "+err.Error(), http.StatusInternalServerError)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	t1 := time.Now()
	id, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	if id == 0 {
		return
	}
	h.mu.Lock()
	h.durs[id] = t1.Sub(t0)
	h.mu.Unlock()
	if tr := h.tr.Load(); tr != nil {
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		tr.add(parent, "server.ServeHTTP", t0, t1)
	}
}

func (h *timedHandler) take(id int64) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.durs[id]
	delete(h.durs, id)
	return d, ok
}

func (w *serveLoad) setup(ctx context.Context) error {
	w.model = machine.Super2()
	w.b.orc = newOracle(w.model, w.b.nproc)
	w.bodies = map[answerKey][]byte{}
	profiles := generatePass(seededProfiles(w.b.opts.seed), 0)
	var all []*block.Block
	for _, u := range profiles {
		all = append(all, u...)
	}
	all = block.SplitWindow(all, serveWindow)
	// Unit u takes every nunits-th block from u on, so the windowed
	// pieces of one large block land in different requests.
	nunits := (len(all) + serveUnitBlocks - 1) / serveUnitBlocks
	for u := 0; u < nunits; u++ {
		var blocks []*block.Block
		for i := u; i < len(all); i += nunits {
			blocks = append(blocks, all[i])
		}
		w.units = append(w.units, serveUnit{text: unitText(blocks), blocks: blocks, insts: countInsts(blocks)})
		w.unitsRef = append(w.unitsRef, blocks)
	}
	w.cycle = len(w.units)
	// Whole-profile units, streamed once each during set-up: /v1/stream
	// exists for long inputs, and these bodies are still being read when
	// the first record is flushed.
	for _, u := range profiles {
		blocks := block.SplitWindow(u, serveWindow)
		w.units = append(w.units, serveUnit{text: unitText(blocks), blocks: blocks, insts: countInsts(blocks)})
	}
	for i := 0; i < setupReps; i++ {
		if err := w.start(ctx); err != nil {
			return err
		}
		if i < setupReps-1 {
			if err := w.stop(); err != nil {
				return err
			}
		}
	}
	// Two sequential cycles over the corpus, so every unit is sent to
	// both endpoints: fills the cache and gives the reference schedules.
	var reqs []*reqResult
	for range 2 * w.cycle {
		if err := ctx.Err(); err != nil {
			return err
		}
		reqs = append(reqs, w.do(ctx, w.k.Add(1), time.Now(), nil, 0))
	}
	w.check(reqs, true)
	reqs = reqs[:0]
	for u := w.cycle; u < len(w.units); u++ {
		reqs = append(reqs, w.send(ctx, w.k.Add(1), u, true, time.Now(), nil, 0))
	}
	w.check(reqs, false)
	return ctx.Err()
}

// start brings up an engine, the server and its listener, and waits
// until /readyz answers; the whole span is one set-up sample.
func (w *serveLoad) start(ctx context.Context) error {
	t0 := time.Now()
	eng, err := engine.New(engine.Config{Model: w.model, Cache: true, BlockTimeout: serveBlockTimeout, KeepOrders: true})
	if err != nil {
		return fmt.Errorf("engine.New: %w", err)
	}
	w.eng = eng
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		return fmt.Errorf("server.New: %w", err)
	}
	w.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	w.addr = ln.Addr().String()
	w.handler = &timedHandler{next: srv, durs: map[int64]time.Duration{}}
	w.hs = &http.Server{Handler: w.handler, ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxOutstanding, MaxConnsPerHost: maxOutstanding}}
	for {
		resp, err := w.client.Get("http://" + w.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil || time.Since(t0) > 10*time.Second {
			return fmt.Errorf("server never became ready: %v", errors.Join(err, ctx.Err()))
		}
		time.Sleep(time.Millisecond)
	}
	w.b.setupS = append(w.b.setupS, time.Since(t0).Seconds())
	w.crossover = eng.Crossover()
	return nil
}

// stop shuts the listener and its connections, drains the server
// (which closes the engine) and waits for the serving goroutine.
func (w *serveLoad) stop() error {
	if w.hs == nil {
		if w.eng != nil {
			err := w.eng.Close()
			w.eng = nil
			return err
		}
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errShut := w.hs.Shutdown(ctx)
	errServe := <-w.served
	if errors.Is(errServe, http.ErrServerClosed) {
		errServe = nil
	}
	rep := w.srv.Drain(ctx)
	w.client.CloseIdleConnections()
	w.hs, w.srv, w.eng = nil, nil, nil
	var errDrain error
	if rep.Forced {
		errDrain = errors.New("drain outlived its deadline")
	}
	if err := errors.Join(errShut, errServe, errDrain, rep.CloseErr); err != nil {
		return fmt.Errorf("stopping the server: %w", err)
	}
	return nil
}

func (w *serveLoad) close() error { return w.stop() }

// reqResult is one request as the client saw it.
type reqResult struct {
	id       int64
	unit     int
	stream   bool
	due      time.Time
	sent     time.Time
	done     time.Time
	status   int
	answer   answerKey   // the body, kept once per distinct content in serveLoad.bodies
	lineAt   []time.Time // /v1/stream: when each NDJSON line arrived
	err      error
	handler  time.Duration
	attested bool // the handler time was recorded
}

// do sends request id of the cycling load; its unit, endpoint and
// tenant all follow from the id.
func (w *serveLoad) do(ctx context.Context, id int64, due time.Time, tr *tracer, parent int64) *reqResult {
	// Consecutive requests alternate endpoints, and so does each unit
	// from one cycle over the corpus to the next.
	n := int(id - 1)
	return w.send(ctx, id, n%w.cycle, (n+n/w.cycle)%2 == 1, due, tr, parent)
}

// send posts unit u to one endpoint as request id and reads the whole
// answer.
func (w *serveLoad) send(ctx context.Context, id int64, u int, stream bool, due time.Time, tr *tracer, parent int64) *reqResult {
	r := &reqResult{id: id, unit: u, stream: stream, due: due}
	path := "/v1/schedule"
	if r.stream {
		path = "/v1/stream"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+w.addr+path, bytes.NewReader(w.units[u].text))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("X-Tenant", "tenant-"+strconv.FormatInt(id%serveTenants, 10))
	req.Header.Set("X-Bench-Req", strconv.FormatInt(id, 10))
	sid := tr.id()
	if sid != 0 {
		req.Header.Set("X-Bench-Span", strconv.FormatInt(sid, 10))
	}
	r.sent = time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		r.err = err
		r.done = time.Now()
		return r
	}
	r.status = resp.StatusCode
	var body []byte
	if r.stream && r.status == http.StatusOK {
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadSlice('\n')
			if len(line) > 0 {
				body = append(body, line...)
				r.lineAt = append(r.lineAt, time.Now())
			}
			if err == bufio.ErrBufferFull {
				r.lineAt = r.lineAt[:len(r.lineAt)-1] // the same line continues
				continue
			}
			if err != nil {
				if err != io.EOF {
					r.err = err
				}
				break
			}
		}
	} else {
		body, r.err = io.ReadAll(resp.Body)
	}
	resp.Body.Close()
	r.done = time.Now()
	tr.record(sid, parent, "client."+path[4:], r.sent, r.done)
	r.handler, r.attested = w.handler.take(id)
	r.answer = w.keep(u, r.stream, body)
	return r
}

// answerKey names one distinct answer body for one unit and endpoint.
type answerKey struct {
	unit   int
	stream bool
	sum    uint64
}

// keep files a body under its content hash, storing the bytes only the
// first time: repeated answers are byte-identical, and holding every
// one would make the client's memory, not the server's, dominate
// peak_rss_mb.
func (w *serveLoad) keep(unit int, stream bool, body []byte) answerKey {
	h := fnv.New64a()
	h.Write(body)
	k := answerKey{unit: unit, stream: stream, sum: h.Sum64()}
	w.mu.Lock()
	if _, ok := w.bodies[k]; !ok {
		w.bodies[k] = body
	}
	w.mu.Unlock()
	return k
}

// blockAnswer is the part of a block's answer the checks read; it
// matches both the /v1/schedule result rows and /v1/stream records.
type blockAnswer struct {
	Seq    int64   `json:"seq"`
	Cycles int32   `json:"cycles"`
	Rung   string  `json:"rung"`
	Order  []int32 `json:"order"`
	Done   *bool   `json:"done"`
	Error  string  `json:"error"`
}

// decode parses one distinct answer body into one answer per block.
// A /v1/stream answer that ends early still yields the records that
// arrived before the break, in sequence order, with the error: they
// are schedules the program delivered and go to the oracle.
func (w *serveLoad) decode(k answerKey) ([]blockAnswer, error) {
	body := w.bodies[k]
	n := len(w.units[k.unit].blocks)
	if !k.stream {
		var resp struct {
			Results []blockAnswer `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("decoding /v1/schedule answer: %w", err)
		}
		if len(resp.Results) != n {
			return nil, fmt.Errorf("/v1/schedule answered %d blocks, want %d", len(resp.Results), n)
		}
		return resp.Results, nil
	}
	out := make([]blockAnswer, 0, n)
	for _, line := range bytes.SplitAfter(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		var a blockAnswer
		if err := json.Unmarshal(line, &a); err != nil {
			return out, fmt.Errorf("decoding /v1/stream line %d: %w", len(out)+1, err)
		}
		if a.Done != nil {
			switch {
			case !*a.Done:
				return out, fmt.Errorf("/v1/stream ended after %d of %d records: %s", len(out), n, bytes.TrimSpace(line))
			case len(out) != n:
				return out, fmt.Errorf("/v1/stream reported done after %d of %d records", len(out), n)
			}
			return out, nil
		}
		if len(out) == n || a.Seq != int64(len(out)) {
			return out, fmt.Errorf("/v1/stream record %d has seq %d", len(out), a.Seq)
		}
		out = append(out, a)
	}
	return out, fmt.Errorf("/v1/stream ended after %d of %d records without a trailer", len(out), n)
}

// check decodes and verifies every request's answer, counting a request
// as failed when it errored, was refused, or any of its schedules fails
// the oracle. ref feeds the reference tally from the complete answers.
// It returns the decoded per-block delivery times of the successful
// requests.
func (w *serveLoad) check(reqs []*reqResult, ref bool) [][]time.Time {
	// Decode and check each distinct answer once.
	verdict := map[answerKey]error{}
	var jobs []job
	var owner []answerKey
	for _, r := range reqs {
		if _, done := verdict[r.answer]; done || r.err != nil || r.status != http.StatusOK {
			continue
		}
		ans, err := w.decode(r.answer)
		verdict[r.answer] = err
		for i, a := range ans {
			id := blockID{3, int32(r.unit), int32(i)}
			jobs = append(jobs, job{id: id, b: w.units[r.unit].blocks[i], order: a.Order, cycles: a.Cycles})
			owner = append(owner, r.answer)
			if ref && err == nil {
				w.b.ref.add(id, a.Order, a.Cycles, a.Rung == engine.RungPrimary.String())
			}
		}
	}
	w.b.orc.check(jobs)
	for i := range jobs {
		if jobs[i].bad && verdict[owner[i]] == nil {
			verdict[owner[i]] = errors.New("a schedule failed the oracle")
		}
	}
	bad := make([]bool, len(reqs))
	at := make([][]time.Time, len(reqs))
	for ri, r := range reqs {
		w.b.attempted++
		if r.err == nil && r.status == http.StatusOK {
			r.err = verdict[r.answer]
		}
		if r.err != nil || r.status != http.StatusOK {
			bad[ri] = true
			continue
		}
		n := len(w.units[r.unit].blocks)
		if r.stream {
			at[ri] = r.lineAt[:n]
			continue
		}
		at[ri] = make([]time.Time, n)
		for i := range at[ri] {
			at[ri][i] = r.done
		}
	}
	for ri, r := range reqs {
		if bad[ri] {
			w.b.failed++
			if r.err != nil {
				fmt.Fprintf(w.b.log, "serve: request %d: %v\n", r.id, r.err)
			} else if r.status != http.StatusOK {
				fmt.Fprintf(w.b.log, "serve: request %d: HTTP %d\n", r.id, r.status)
			}
			at[ri] = nil
		}
	}
	return at
}

// openLoop sends requests on a fixed schedule for d, each in its own
// goroutine, regardless of how earlier ones fare.
func (w *serveLoad) openLoop(ctx context.Context, d time.Duration, tr *tracer, parent int64) ([]*reqResult, error) {
	period := time.Duration(float64(time.Second) / openLoopRate)
	n := max(1, int(d/period))
	reqs := make([]*reqResult, n)
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	t0 := time.Now().Add(time.Millisecond)
	timer := time.NewTimer(0)
	defer timer.Stop()
	var err error
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if err = ctx.Err(); err != nil {
			break
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			reqs[i] = w.do(ctx, w.k.Add(1), due, tr, parent)
		}(i, due)
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return reqs, nil
}

// closedLoop runs closedClients clients, each sending its next request
// when the previous one is answered, for d.
func (w *serveLoad) closedLoop(ctx context.Context, d time.Duration, tr *tracer, parent int64) ([]*reqResult, time.Duration, error) {
	start := time.Now()
	end := start.Add(d)
	per := make([][]*reqResult, closedClients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				now := time.Now()
				per[c] = append(per[c], w.do(ctx, w.k.Add(1), now, tr, parent))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	var reqs []*reqResult
	for _, p := range per {
		reqs = append(reqs, p...)
	}
	return reqs, wall, nil
}

// queueSampler polls Server.Stats for the engine-queue depth until
// stopped; it runs only in the traced half.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}
	max  int64
}

func sampleQueue(srv *server.Server) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			q.max = max(q.max, srv.Stats().QueueDepth)
			select {
			case <-tick.C:
			case <-q.stop:
				return
			}
		}
	}()
	return q
}

// finish stops the sampler and returns the deepest queue it saw.
func (q *queueSampler) finish() int64 {
	close(q.stop)
	<-q.done
	return q.max
}

func (w *serveLoad) measure(ctx context.Context, d time.Duration, tr *tracer, parent int64) (*tally, error) {
	t := &tally{}
	before := w.srv.Stats()
	w.handler.tr.Store(tr)
	defer w.handler.tr.Store(nil)
	var q *queueSampler
	if tr != nil {
		q = sampleQueue(w.srv)
	}

	stopRSS := w.b.rss.sampleEvery(capacitySlice)
	oid := tr.id()
	o0 := time.Now()
	dOpen := time.Duration(openShare * float64(d))
	open, err := w.openLoop(ctx, dOpen, tr, oid)
	tr.record(oid, parent, "loadgen.open", o0, time.Now())
	var closed []*reqResult
	var wall time.Duration
	var closedStart time.Time
	if err == nil {
		cid := tr.id()
		c0 := time.Now()
		closedStart = time.Now()
		closed, wall, err = w.closedLoop(ctx, d-dOpen, tr, cid)
		tr.record(cid, parent, "loadgen.closed", c0, time.Now())
	}
	rssErr := stopRSS()
	qmax := int64(0)
	if q != nil {
		qmax = q.finish()
	}
	if err = errors.Join(err, rssErr); err != nil {
		return nil, err
	}
	after := w.srv.Stats()

	// Open loop: latency from when each request was due, in windows of
	// windowRequests, and the service rate of each request (its
	// instructions per second of ServeHTTP time), whose median is
	// insts_per_s: a stall of the machine moves only the requests it
	// overlaps.
	var lags, client, handler []float64
	t.lat = make([]latWindow, max(1, len(open)/windowRequests))
	for i, at := range w.check(open, false) {
		r := open[i]
		lags = append(lags, ms(r.sent.Sub(r.due)))
		if at == nil {
			continue
		}
		lw := &t.lat[min(i/windowRequests, len(t.lat)-1)]
		lw.units = append(lw.units, ms(r.done.Sub(r.due)))
		for _, a := range at {
			lw.blocks = append(lw.blocks, weighted{us(a.Sub(r.due)), 1})
		}
		if r.attested {
			t.rates = append(t.rates, ratio(float64(w.units[r.unit].insts), r.handler.Seconds()))
			client = append(client, ms(r.done.Sub(r.sent)))
			handler = append(handler, ms(r.handler))
		}
	}
	// Closed loop: capacity, as the median over capacitySlice slices of
	// the instructions whose answers completed in each.
	var busy time.Duration
	var okReqs int64
	slices := make([]int64, max(1, int(wall/capacitySlice)))
	for i, at := range w.check(closed, false) {
		r := closed[i]
		busy += r.handler
		if at == nil {
			continue
		}
		okReqs++
		if s := int(r.done.Sub(closedStart) / capacitySlice); s < len(slices) {
			slices[s] += w.units[r.unit].insts
		}
	}
	span := min(wall, capacitySlice*time.Duration(len(slices)))
	var capacity []float64
	for _, n := range slices {
		capacity = append(capacity, ratio(float64(n), (span/time.Duration(len(slices))).Seconds()))
	}
	w.b.layers["server.capacity_insts_per_s"] = median(capacity)

	period := float64(time.Second/time.Millisecond) / openLoopRate
	hp50, hp99 := quantile(handler, 0.5), quantile(handler, 0.99)
	cp50, cp99 := quantile(client, 0.5), quantile(client, 0.99)
	lag99 := quantile(lags, 0.99)
	w.b.layers["server.handler_p50_share"] = ratio(hp50, cp50)
	w.b.layers["server.handler_p99_share"] = ratio(hp99, cp99)
	w.b.layers["server.busy_ratio"] = ratio(float64(busy), float64(wall))
	w.b.layers["server.queue_depth_max"] = float64(qmax)
	w.b.layers["server.shed_queue"] += float64(after.Shed.Queue - before.Shed.Queue)
	w.b.layers["server.shed_rate"] += float64(after.Shed.Rate - before.Shed.Rate)
	w.b.layers["server.shed_tenant"] += float64(after.Shed.Tenant - before.Shed.Tenant)
	w.b.layers["server.shed_bytes"] += float64(after.Shed.Bytes - before.Shed.Bytes)
	w.b.layers["loadgen.lag_p99_share"] = ratio(lag99, period)
	ec := engineCounts{
		hits:        after.Engine.CacheHits - before.Engine.CacheHits,
		diskHits:    after.Engine.DiskHits - before.Engine.DiskHits,
		misses:      after.Engine.CacheMisses - before.Engine.CacheMisses,
		degraded:    after.Engine.DegradedBlocks - before.Engine.DegradedBlocks,
		gateFails:   after.Engine.GateFailures - before.Engine.GateFailures,
		quarantines: after.Engine.Quarantines - before.Engine.Quarantines,
	}
	ec.report(w.b.layers)

	t.info = []infoLine{
		{"req_p50_ms", "ms", t.unitQ(0.5)},
		{"req_p99_ms", "ms", t.unitQ(0.99)},
		{"capacity_rps", "1/s", ratio(float64(okReqs), wall.Seconds())},
		{"open_loop_rate", "1/s", openLoopRate},
		{"closed_loop_clients", "count", closedClients},
		{"handler_p50_ms", "ms", hp50},
		{"handler_p99_ms", "ms", hp99},
		{"http_overhead_ms", "ms", cp50 - hp50},
		{"lag_p99_ms", "ms", lag99},
	}
	return t, nil
}

func (w *serveLoad) reference() replayInput {
	var text []byte
	for _, u := range w.units[:w.cycle] {
		text = append(text, u.text...)
	}
	return replayInput{model: w.model, crossover: w.crossover, blockTimeout: serveBlockTimeout, units: w.unitsRef, text: text}
}
