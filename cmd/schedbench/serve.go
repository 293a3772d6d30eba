// The -serve load-generator mode: drive a running schedd daemon with
// open-loop traffic and report the service-level picture — p50/p99
// request latency, achieved throughput, and the shed rate.
//
// Open-loop means arrivals are scheduled by a clock, not by
// completions: a daemon that slows down does not slow the generator
// down, so overload actually builds queues and exercises the admission
// path instead of being politely absorbed by a closed loop. The
// request mix round-robins a set of assembly units (rendered from the
// Table 3 corpus, one label per block so boundaries survive the text
// round-trip) across -servetenants distinct X-Tenant identities.
//
// -servecheck turns the generator into an identity gate: every 200
// response's schedules must be byte-identical to a local
// cache-disabled reference engine run over the same unit — the proof
// CI leans on that a daemon restarted over a kill -9 survivor cache
// file serves exactly what a cold engine would have computed.
// -servewarm makes it the warm-restart gate: the daemon's /stats
// engine counters over the load window must show a hit rate at or
// above the floor with at least one block served from the persistent
// tier.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"daginsched/internal/asm"
	"daginsched/internal/block"
	"daginsched/internal/engine"
	"daginsched/internal/machine"
	"daginsched/internal/server"
	"daginsched/internal/tables"
)

// serveUnitBlocks is how many basic blocks one request body carries.
const serveUnitBlocks = 32

// serveReport is the -serve run's outcome.
type serveReport struct {
	Requests  int64   // sent
	OK        int64   // 200s
	Shed      int64   // 429/503 refusals
	Errors    int64   // everything else
	OKPerSec  float64 // achieved goodput
	ShedRate  float64 // Shed / Requests
	P50Millis float64 // OK-request latency
	P99Millis float64 //
	HitRate   float64 // daemon cache hit rate over the window
	DiskHits  int64   // blocks served from the persistent tier
	Checked   int64   // responses proven byte-identical (-servecheck)
}

// serveConfig carries the -serve flag group.
type serveConfig struct {
	url        string        // daemon base URL
	rate       float64       // offered requests/sec
	duration   time.Duration // load window
	tenants    int           // tenant mix size
	warmExpect float64       // warm hit-rate floor (0 disables)
	check      bool          // verify byte-identity against a local reference
}

// serveUnit is one request body plus its local reference schedules.
type serveUnit struct {
	body string
	want [][]int32 // nil unless -servecheck
}

// renderUnits slices the corpus into request bodies. Every block gets
// an explicit label line: synthesized blocks carry none of their own,
// and without labels consecutive blocks that do not end in a CTI would
// fuse when the daemon re-partitions the text.
func renderUnits(sets []tables.BenchmarkSet) []serveUnit {
	var all []*block.Block
	for _, set := range sets {
		all = append(all, set.Blocks...)
	}
	var units []serveUnit
	for start := 0; start < len(all); start += serveUnitBlocks {
		end := min(start+serveUnitBlocks, len(all))
		var sb strings.Builder
		for i, b := range all[start:end] {
			fmt.Fprintf(&sb, "u%d:\n", i)
			sb.WriteString(asm.Print(b.Insts))
		}
		units = append(units, serveUnit{body: sb.String()})
	}
	return units
}

// referenceUnit schedules one unit's text on the local cache-disabled
// engine, exactly as the daemon will parse it.
func referenceUnit(e *engine.Engine, body string) ([][]int32, error) {
	sc := asm.NewBlockScanner(strings.NewReader(body))
	var blocks []*block.Block
	for {
		b := &block.Block{}
		ok, err := sc.Next(b)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		blocks = append(blocks, b)
	}
	res, err := e.Run(blocks)
	if err != nil {
		return nil, err
	}
	// res.Orders shares the result's arena; copy out.
	orders := make([][]int32, len(res.Orders))
	for i, o := range res.Orders {
		orders[i] = append([]int32(nil), o...)
	}
	return orders, nil
}

// serveBlockResult / serveScheduleResp mirror the daemon's
// /v1/schedule response shape.
type serveBlockResult struct {
	Name   string  `json:"name"`
	Cycles int32   `json:"cycles"`
	Rung   string  `json:"rung"`
	Order  []int32 `json:"order"`
}

type serveScheduleResp struct {
	Blocks  int                `json:"blocks"`
	Results []serveBlockResult `json:"results"`
}

// serveTally collects the load run's outcomes across request
// goroutines.
type serveTally struct {
	mu        sync.Mutex
	requests  int64
	ok        int64
	shed      int64
	errors    int64
	checked   int64
	mismatch  string // first identity violation, sticky
	firstErr  string // first non-shed failure, sticky
	latencies []time.Duration
}

// waitReady polls the daemon's /readyz until it answers 200.
func waitReady(client *http.Client, base string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			code := resp.StatusCode
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if code == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("daemon at %s never became ready: %v", base, err)
			}
			return fmt.Errorf("daemon at %s never became ready", base)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// fetchSnapshot reads the daemon's /stats.
func fetchSnapshot(client *http.Client, base string) (*server.Snapshot, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	snap := new(server.Snapshot)
	if err := json.NewDecoder(resp.Body).Decode(snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// serveRequest posts one unit and folds the outcome into the tally.
func serveRequest(client *http.Client, base string, u *serveUnit, tenant string, tally *serveTally) {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/schedule", strings.NewReader(u.body))
	if err != nil {
		tally.fail(err.Error())
		return
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		tally.fail(err.Error())
		return
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		var dec serveScheduleResp
		if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
			tally.fail("decoding 200 body: " + err.Error())
			return
		}
		tally.succeed(time.Since(t0), &dec, u)
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		_, _ = io.Copy(io.Discard, resp.Body)
		tally.refuse()
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		tally.fail(fmt.Sprintf("HTTP %d: %s", resp.StatusCode, body))
	}
}

func (t *serveTally) succeed(d time.Duration, dec *serveScheduleResp, u *serveUnit) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ok++
	t.latencies = append(t.latencies, d)
	if u.want == nil {
		return
	}
	t.checked++
	if len(dec.Results) != len(u.want) {
		t.setMismatch(fmt.Sprintf("%d blocks in response, reference has %d", len(dec.Results), len(u.want)))
		return
	}
	for i := range u.want {
		got := dec.Results[i].Order
		if len(got) != len(u.want[i]) {
			t.setMismatch(fmt.Sprintf("block %d: order length %d, want %d", i, len(got), len(u.want[i])))
			return
		}
		for k := range got {
			if got[k] != u.want[i][k] {
				t.setMismatch(fmt.Sprintf("block %d position %d: node %d, want %d", i, k, got[k], u.want[i][k]))
				return
			}
		}
	}
}

func (t *serveTally) setMismatch(msg string) {
	if t.mismatch == "" {
		t.mismatch = msg
	}
}

func (t *serveTally) refuse() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shed++
}

func (t *serveTally) fail(msg string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.errors++
	if t.firstErr == "" {
		t.firstErr = msg
	}
}

// percentile returns the p-th percentile of sorted durations in
// milliseconds (nearest-rank).
func percentileMillis(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// runServe fires the open-loop load at the daemon and prints the SLO
// report. Gate failures (identity mismatch, warm floor miss) come back
// as errors for the exit-1 path.
func runServe(sets []tables.BenchmarkSet, m *machine.Model, cfg serveConfig) error {
	if cfg.rate <= 0 {
		return fmt.Errorf("-serverate must be positive, got %v", cfg.rate)
	}
	if cfg.tenants < 1 {
		cfg.tenants = 1
	}
	units := renderUnits(sets)
	if len(units) == 0 {
		return fmt.Errorf("no blocks in the selected corpus")
	}
	if cfg.check {
		ref, err := engine.New(engine.Config{Workers: 1, Model: m, KeepOrders: true})
		if err != nil {
			return err
		}
		for i := range units {
			if units[i].want, err = referenceUnit(ref, units[i].body); err != nil {
				return fmt.Errorf("reference for unit %d: %w", i, err)
			}
		}
	}

	base := strings.TrimSuffix(cfg.url, "/")
	client := &http.Client{Timeout: 30 * time.Second}
	if err := waitReady(client, base, 10*time.Second); err != nil {
		return err
	}
	before, err := fetchSnapshot(client, base)
	if err != nil {
		return err
	}

	tally := &serveTally{}
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / cfg.rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stop := time.After(cfg.duration)
	n := 0
loop:
	for {
		select {
		case <-stop:
			break loop
		case <-ticker.C:
			u := &units[n%len(units)]
			tenant := fmt.Sprintf("t%d", n%cfg.tenants)
			n++
			tally.mu.Lock()
			tally.requests++
			tally.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				serveRequest(client, base, u, tenant, tally)
			}()
		}
	}
	wg.Wait()
	after, err := fetchSnapshot(client, base)
	if err != nil {
		return err
	}

	rep := buildServeReport(cfg, tally, before, after)
	fmt.Printf("Serve load: %s, %.0f req/s offered for %v across %d tenants\n",
		base, cfg.rate, cfg.duration, cfg.tenants)
	fmt.Printf("  requests %d  ok %d (%.0f/s)  shed %d (%.1f%%)  errors %d\n",
		rep.Requests, rep.OK, rep.OKPerSec, rep.Shed, rep.ShedRate*100, rep.Errors)
	fmt.Printf("  latency p50 %.1fms p99 %.1fms  hit rate %.1f%%  disk hits %d  checked %d\n",
		rep.P50Millis, rep.P99Millis, rep.HitRate*100, rep.DiskHits, rep.Checked)

	if tally.mismatch != "" {
		return fmt.Errorf("identity gate: daemon schedule diverged from the reference: %s", tally.mismatch)
	}
	if cfg.check && rep.Checked == 0 {
		return fmt.Errorf("identity gate: no response was ever checked (all shed?)")
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d requests failed outside the shed taxonomy (first: %s)", rep.Errors, tally.firstErr)
	}
	if cfg.warmExpect > 0 {
		if rep.HitRate < cfg.warmExpect {
			return fmt.Errorf("warm gate: hit rate %.3f below the %.3f floor", rep.HitRate, cfg.warmExpect)
		}
		if rep.DiskHits == 0 {
			return fmt.Errorf("warm gate: no block was served from the persistent tier")
		}
	}
	return nil
}

// buildServeReport folds the tally and the daemon's before/after
// engine counters into the report.
func buildServeReport(cfg serveConfig, tally *serveTally, before, after *server.Snapshot) *serveReport {
	tally.mu.Lock()
	defer tally.mu.Unlock()
	sort.Slice(tally.latencies, func(i, j int) bool { return tally.latencies[i] < tally.latencies[j] })
	rep := &serveReport{
		Requests:  tally.requests,
		OK:        tally.ok,
		Shed:      tally.shed,
		Errors:    tally.errors,
		Checked:   tally.checked,
		P50Millis: percentileMillis(tally.latencies, 0.50),
		P99Millis: percentileMillis(tally.latencies, 0.99),
	}
	if cfg.duration > 0 {
		rep.OKPerSec = float64(tally.ok) / cfg.duration.Seconds()
	}
	if tally.requests > 0 {
		rep.ShedRate = float64(tally.shed) / float64(tally.requests)
	}
	hits := (after.Engine.CacheHits - before.Engine.CacheHits) + (after.Engine.DiskHits - before.Engine.DiskHits)
	misses := after.Engine.CacheMisses - before.Engine.CacheMisses
	if hits+misses > 0 {
		rep.HitRate = float64(hits) / float64(hits+misses)
	}
	rep.DiskHits = after.Engine.DiskHits - before.Engine.DiskHits
	return rep
}
