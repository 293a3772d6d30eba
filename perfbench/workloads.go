package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"daginsched/internal/engine"
)

// workloadDoc records why each workload exists and what its "unit" and
// "block" latencies are. BENCHMARK.json carries the first sentence.
var workloadDoc = map[string]string{
	"cold-batch": "Table 3 profiles with fresh content every pass, one Engine.Run per profile, cache off: resource/dag/heur/sched do the work. " +
		"unit = one Run call; block = time until its Run returns; insts_per_s over Run wall.",
	"warm-stream": "assembly text through asm into Engine.RunStream on an engine restarted over a populated cache file every 2 passes, 1 block in 32 new: asm, stream dispatch and both cache tiers do the work. " +
		"unit = one RunStream over a profile's text; block = handed to the engine until its sink call.",
	"serve": "internal/server on loopback with the daemon's defaults, three tenants posting 32-block units to /v1/schedule and /v1/stream: admission, HTTP/JSON and asm do the work. " +
		"unit = one open-loop request from when it was due; block = due until the client holds its schedule; " +
		"insts_per_s = the median open-loop request's instructions per second of ServeHTTP time; the closed-loop capacity is server.capacity_insts_per_s.",
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadDoc))
	for n := range workloadDoc {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newWorkload(name string, b *bench) workload {
	switch name {
	case "cold-batch":
		return &coldBatch{b: b}
	case "warm-stream":
		return &warmStream{b: b}
	default:
		return &serveLoad{b: b}
	}
}

// setupReps is how many times a workload repeats its set-up; setup_s
// is the median. engine.New's crossover calibration takes 5 to 20 ms
// from one call to the next on a 2-core machine, and serve has no
// set-up samples besides these: with a median of 5, serve's setup_s
// had an interquartile range of a third of its median over 10 seeds.
const setupReps = 15

// statLayers are the per-layer metrics read from the program's own
// counters rather than the replay. Each starts at zero: a layer the
// workload does not exercise did no work.
var statLayers = []string{
	"engine.l1_hit_ratio", "engine.disk_hit_ratio", "engine.miss_ratio",
	"engine.pending_peak", "engine.big_queue_peak", "engine.small_queue_peak",
	"engine.degraded_blocks", "engine.gate_failures", "engine.quarantines",
	"diskcache.entries", "diskcache.tail_bytes", "diskcache.open_share", "diskcache.read_pass_ratio",
	"server.handler_p50_share", "server.handler_p99_share", "server.busy_ratio", "server.capacity_insts_per_s", "server.queue_depth_max",
	"server.shed_queue", "server.shed_rate", "server.shed_tenant", "server.shed_bytes",
	"loadgen.lag_p99_share",
}

// engineCounts sums the engine's own Stats over a workload's runs.
type engineCounts struct {
	hits, diskHits, misses           int64
	degraded, gateFails, quarantines int64
	pendingPeak, bigPeak, smallPeak  int
}

func (c *engineCounts) add(st *engine.Stats) {
	c.hits += st.CacheHits
	c.diskHits += st.DiskHits
	c.misses += st.CacheMisses
	c.degraded += st.DegradedBlocks
	c.gateFails += st.GateFailures
	c.quarantines += st.Quarantines
	c.pendingPeak = max(c.pendingPeak, st.PendingPeak)
	c.bigPeak = max(c.bigPeak, st.BigQueuePeak)
	c.smallPeak = max(c.smallPeak, st.SmallQueuePeak)
}

func (c *engineCounts) report(out map[string]float64) {
	lookups := float64(c.hits + c.diskHits + c.misses)
	out["engine.l1_hit_ratio"] = ratio(float64(c.hits), lookups)
	out["engine.disk_hit_ratio"] = ratio(float64(c.diskHits), lookups)
	out["engine.miss_ratio"] = ratio(float64(c.misses), lookups)
	out["engine.pending_peak"] = float64(c.pendingPeak)
	out["engine.big_queue_peak"] = float64(c.bigPeak)
	out["engine.small_queue_peak"] = float64(c.smallPeak)
	out["engine.degraded_blocks"] = float64(c.degraded)
	out["engine.gate_failures"] = float64(c.gateFails)
	out["engine.quarantines"] = float64(c.quarantines)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// printReport writes the human-readable result: the environment, every
// end-to-end metric with its unit and sample count, the workload's own
// figures, and the oracle's tally.
func printReport(w io.Writer, env envInfo, b *bench, t *tally, vals map[string]float64) {
	fmt.Fprintf(w, "env %s\n", mustJSON(env))
	label := "end-to-end (tracing off)"
	if env.Trace {
		label = "end-to-end of the traced half (the result line carries the per-layer metrics)"
	}
	units, blocks := t.samples()
	fmt.Fprintf(w, "%s, %d windows (%d unit and %d block latency samples, percentiles per window, median over windows), %d set-ups:\n",
		label, len(t.lat), units, blocks, len(b.setupS))
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-22s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	for _, l := range t.info {
		fmt.Fprintf(w, "  %-22s %14.6g %s\n", l.name, l.value, l.unit)
	}
	fmt.Fprintf(w, "  %-22s %14.6g ratio (%d failed of %d attempted)\n", "fail_ratio", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	fmt.Fprintf(w, "oracle: %d schedules checked in full, %d identical to a proven one, %d failed\n",
		b.orc.checked.Load(), b.orc.reused.Load(), b.orc.failed.Load())
	if env.Trace {
		fmt.Fprintln(w, "per-layer:")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
		}
	}
}

// printLayers writes the per-layer figures and the reconciliation of
// the replayed layer self-times against the 1-worker engine wall.
func printLayers(w io.Writer, rep *layerReport, tr *tracer) {
	c := &rep.cost
	fmt.Fprintf(w, "layers: replay of %d blocks (%d insts), median of %d passes, self-times vs 1-worker engine.Run wall:\n", c.blocks, c.insts, replayReps)
	for _, l := range []struct {
		name string
		d    time.Duration
	}{
		{"resource.PrepareBlock", c.prepare},
		{"dag.N2Forward.BuildCleanInto", c.n2},
		{"dag.TableBackward.BuildInto", c.table},
		{"dag.DAG.Freeze", c.freeze},
		{"heur sweep", c.heur},
		{"sched.Scratch.Forward", c.sched},
	} {
		fmt.Fprintf(w, "  %-30s %10.3f ms  %5.1f%%\n", l.name, ms(l.d), 100*ratio(float64(l.d), float64(rep.wall)))
	}
	un := 1 - ratio(float64(rep.layerSum), float64(rep.wall))
	verdict := "within"
	if un < unaccountedLo || un > unaccountedHi {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(w, "  %-30s %10.3f ms\n  %-30s %10.3f ms  unaccounted %.3f, %s the stated tolerance [%g, %g]\n",
		"layer sum", ms(rep.layerSum), "engine.Run wall (1 worker)", ms(rep.wall), un, verdict, unaccountedLo, unaccountedHi)
	if rep.mismatch != 0 {
		fmt.Fprintf(w, "  WARNING: replayed schedules total %d cycles more than the engine's; the replay does not mirror the engine\n", rep.mismatch)
	}
	var bins []string
	for i, l := range rep.recon.binLabels {
		if l != "" {
			bins = append(bins, fmt.Sprintf("bin%d=%s", i, l))
		}
	}
	fmt.Fprintf(w, "  size bins: %s\n", strings.Join(bins, " "))
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "span self-times:\n")
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %10.3f ms\n", n, ms(self[n]))
	}
}
