package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric the benchmark reports. The two tables below
// are the single source of truth for names, units and directions:
// BENCHMARK.json must list exactly these (TestManifestMatchesTables).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the program sees, measured with
// tracing off by timing calls into the program's public entry points.
// Every workload reports every one of them; see workloadDoc for what
// "unit" and "block" mean on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"insts_per_s", "inst/s", "higher", 0.25},
	{"unit_p50_ms", "ms", "lower", 0.25},
	{"sched_cycles", "cycles", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers, produced by the traced
// run. Layers are named after the repository's packages plus the
// benchmark's own loadgen and trace. A layer a workload does not
// exercise reports a zero count or ratio; every timing here is
// measured on every workload.
var perLayer = []metricDef{
	{Name: "asm.scan_ns_per_inst", Unit: "ns/inst", Better: "lower"},
	{Name: "resource.prepare_ns_per_inst", Unit: "ns/inst", Better: "lower"},
	{Name: "dag.n2_ns_per_inst", Unit: "ns/inst", Better: "lower"},
	{Name: "dag.n2_clean_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dag.table_ns_per_inst", Unit: "ns/inst", Better: "lower"},
	{Name: "dag.freeze_ns_per_arc", Unit: "ns/arc", Better: "lower"},
	{Name: "dag.arcs_per_inst", Unit: "arc/inst", Better: "lower"},
	{Name: "heur.sweep_ns_per_node", Unit: "ns/node", Better: "lower"},
	{Name: "heur.pack_exact_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.select_ns_per_inst", Unit: "ns/inst", Better: "lower"},
	{Name: "sched.packed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.crossover", Unit: "inst", Better: "higher"},
	{Name: "engine.bin0.wall_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.bin1.wall_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.bin2.wall_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.bin3.wall_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.bin4.wall_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.bin5.wall_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.bin6.wall_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.bin7.wall_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.unaccounted_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.blockkey_ns_per_inst", Unit: "ns/inst", Better: "lower"},
	{Name: "engine.l1_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.disk_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.pending_peak", Unit: "count", Better: "lower"},
	{Name: "engine.big_queue_peak", Unit: "count", Better: "lower"},
	{Name: "engine.small_queue_peak", Unit: "count", Better: "lower"},
	{Name: "engine.degraded_blocks", Unit: "count", Better: "lower"},
	{Name: "engine.gate_failures", Unit: "count", Better: "lower"},
	{Name: "engine.quarantines", Unit: "count", Better: "lower"},
	{Name: "engine.unit_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.block_p50_us", Unit: "us", Better: "lower"},
	{Name: "engine.block_p90_us", Unit: "us", Better: "lower"},
	{Name: "diskcache.entries", Unit: "count", Better: "higher"},
	{Name: "diskcache.tail_bytes", Unit: "bytes", Better: "lower"},
	{Name: "diskcache.open_share", Unit: "ratio", Better: "lower"},
	{Name: "diskcache.read_pass_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.handler_p50_share", Unit: "ratio", Better: "higher"},
	{Name: "server.handler_p99_share", Unit: "ratio", Better: "higher"},
	{Name: "server.busy_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.capacity_insts_per_s", Unit: "inst/s", Better: "higher"},
	{Name: "server.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "server.shed_queue", Unit: "count", Better: "lower"},
	{Name: "server.shed_rate", Unit: "count", Better: "lower"},
	{Name: "server.shed_tenant", Unit: "count", Better: "lower"},
	{Name: "server.shed_bytes", Unit: "count", Better: "lower"},
	{Name: "loadgen.lag_p99_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pick builds the metrics object for one table from a name→value map,
// failing on a missing or non-finite value rather than printing one.
func pick(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (which it sorts); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// weighted is a sample that stands for w equal observations: a batch
// call delivers every block of its unit at the same moment.
type weighted struct {
	v float64
	w int64
}

// wquantile is the nearest-rank q-quantile of the expanded samples.
func wquantile(s []weighted, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	slices.SortFunc(s, func(a, b weighted) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	var total int64
	for _, x := range s {
		total += x.w
	}
	rank := int64(math.Ceil(q * float64(total)))
	var cum int64
	for _, x := range s {
		cum += x.w
		if cum >= rank {
			return x.v
		}
	}
	return s[len(s)-1].v
}

// rssMeter records the process's peak resident set in each timed
// window. Before a window it returns freed heap to the OS and resets
// the kernel's high-water mark, so the benchmark's own corpus
// generation and oracle garbage between windows do not count.
// peak_rss_mb is the median window's peak: one window's garbage
// collection timing does not move it, a program that holds more memory
// throughout does.
type rssMeter struct {
	peaksKB []float64
	noReset bool // the kernel refused clear_refs; every peak then spans the process so far
}

func (m *rssMeter) begin() {
	debug.FreeOSMemory()
	m.reset()
}

func (m *rssMeter) reset() {
	if !m.noReset {
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			m.noReset = true
		}
	}
}

func (m *rssMeter) end() error {
	kb, err := readHWM()
	if err != nil {
		return err
	}
	m.peaksKB = append(m.peaksKB, float64(kb))
	return nil
}

// sampleEvery treats each period of one long window as a window of its
// own, until the returned stop is called; stop records the last one.
func (m *rssMeter) sampleEvery(period time.Duration) (stop func() error) {
	m.begin()
	quit, done := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := m.end(); err != nil {
					done <- err
					return
				}
				m.reset()
			case <-quit:
				done <- m.end()
				return
			}
		}
	}()
	return func() error {
		close(quit)
		return <-done
	}
}

func (m *rssMeter) peakMB() float64 { return median(append([]float64(nil), m.peaksKB...)) / 1024 }

// readHWM returns VmHWM from /proc/self/status in KiB.
func readHWM() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}
