// The -diff perf gate: compare fresh perfbench result lines against a
// committed baseline of the same, and fail (exit 3) when an end-to-end
// metric got worse by more than its bound.
//
// Both files hold perfbench result lines, one per run: the JSON object
// that is the last line of `bash perfbench/run.sh ...`. A metric's
// figure on either side is its median over that side's lines, so one
// noisy run moves neither; the paper timed its Tables 4 and 5 the same
// way, over repeated runs. Which metrics are gated, which direction is
// better and how far each may move come from BENCHMARK.json's
// end_to_end list, which the gate only reads: a metric is gated on
// every workload whose key names it ("cold-batch/insts_per_s" is
// insts_per_s on cold-batch). The gate also fails when a fresh line is
// not correct, when a fresh line failed more operations than any
// baseline line, and when a gated baseline metric is missing from a
// fresh line, so a renamed workload or metric cannot dodge it.
//
// -diffselftest proves the gate can fire: the baseline compared with
// itself must pass, and every injected regression on a copy of it must
// be flagged: each gated metric worsened just past its bound, one extra
// failed operation, an incorrect line, and a dropped metric.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// boundsPath is the benchmark declaration the gate takes its metrics
// and bounds from, relative to the checkout root.
const boundsPath = "BENCHMARK.json"

// perfResult is the part of a perfbench result line the gate reads.
type perfResult struct {
	Correct bool                   `json:"correct"`
	Failed  int64                  `json:"failed"`
	Metrics map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
}

// metricBound is one BENCHMARK.json end_to_end entry: the largest
// relative change for the worse the gate accepts.
type metricBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

// worse reports whether fresh is worse than base by more than the
// bound.
func (b metricBound) worse(base, fresh float64) bool {
	if b.Better == "higher" {
		return fresh < base*(1-b.Bound)
	}
	return fresh > base*(1+b.Bound)
}

// readResults loads a file of perfbench result lines. Blank lines are
// skipped; any other line that is not a result object is an error.
func readResults(path string) ([]perfResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []perfResult
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r perfResult
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		if r.Metrics == nil {
			return nil, fmt.Errorf("%s:%d: not a perfbench result line (no metrics)", path, i+1)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no perfbench result lines", path)
	}
	return out, nil
}

// readBounds loads the end_to_end list of a BENCHMARK.json.
func readBounds(path string) ([]metricBound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricBound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	for _, b := range doc.EndToEnd {
		if (b.Better != "higher" && b.Better != "lower") || b.Bound <= 0 {
			return nil, fmt.Errorf("%s: metric %q: want better higher or lower and a positive bound", path, b.Name)
		}
	}
	return doc.EndToEnd, nil
}

// metricName is the metric a result key names: its last path element
// ("cold-batch/insts_per_s" is insts_per_s).
func metricName(key string) string { return key[strings.LastIndexByte(key, '/')+1:] }

// boundFor finds the bound gating a metric key.
func boundFor(bounds []metricBound, key string) (metricBound, bool) {
	name := metricName(key)
	for _, b := range bounds {
		if b.Name == name {
			return b, true
		}
	}
	return metricBound{}, false
}

// gatedKeys lists, sorted, every metric key of the baseline lines that
// an end_to_end bound gates.
func gatedKeys(base []perfResult, bounds []metricBound) []string {
	var keys []string
	for _, r := range base {
		for k := range r.Metrics {
			if _, ok := boundFor(bounds, k); ok && !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// median is key's median over lines; ok is false when a line lacks
// the key.
func median(lines []perfResult, key string) (m float64, ok bool) {
	xs := make([]float64, 0, len(lines))
	for _, r := range lines {
		v, found := r.Metrics[key]
		if !found {
			return 0, false
		}
		xs = append(xs, v.Value)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2], true
	}
	return (xs[n/2-1] + xs[n/2]) / 2, true
}

// maxFailed is the most operations any line failed.
func maxFailed(lines []perfResult) int64 {
	var m int64
	for _, r := range lines {
		m = max(m, r.Failed)
	}
	return m
}

// comparePerf prints one row per gated metric plus the correctness
// and failure checks, then the metric that came closest to its bound,
// and returns the number of regressions.
func comparePerf(base, fresh []perfResult, bounds []metricBound, w io.Writer) (regressions int) {
	fmt.Fprintf(w, "%-28s %14s %14s %8s %6s  %s\n", "metric", "base median", "fresh median", "delta", "bound", "verdict")
	keys := gatedKeys(base, bounds)
	if len(keys) == 0 {
		fmt.Fprintf(w, "%-28s REGRESSED no gated metrics in the baseline\n", "(none)")
		return 1
	}
	worst, worstUsed := "", math.Inf(-1) // the metric that used most of its bound
	for _, k := range keys {
		b, _ := boundFor(bounds, k)
		bv, bok := median(base, k)
		fv, fok := median(fresh, k)
		if !bok || !fok {
			side := "fresh"
			if !bok {
				side = "baseline"
			}
			regressions++
			fmt.Fprintf(w, "%-28s %14s %14s %8s %5.0f%%  REGRESSED missing from a %s line\n", k, "-", "-", "-", b.Bound*100, side)
			continue
		}
		delta := 0.0
		if bv != 0 {
			delta = fv/bv - 1
		}
		used := delta / b.Bound
		if b.Better == "higher" {
			used = -used
		}
		if used > worstUsed {
			worstUsed = used
			worst = fmt.Sprintf("%s, %+.1f%% against a %.0f%% bound", k, delta*100, b.Bound*100)
		}
		verdict := "ok"
		if b.worse(bv, fv) {
			regressions++
			verdict = "REGRESSED"
		}
		fmt.Fprintf(w, "%-28s %14.4g %14.4g %+7.1f%% %5.0f%%  %s\n", k, bv, fv, delta*100, b.Bound*100, verdict)
	}
	for i, r := range fresh {
		if !r.Correct {
			regressions++
			fmt.Fprintf(w, "%-28s REGRESSED fresh line %d failed the oracle\n", "correct", i+1)
		}
	}
	if bf, ff := maxFailed(base), maxFailed(fresh); ff > bf {
		regressions++
		fmt.Fprintf(w, "%-28s %14d %14d %8s %6s  REGRESSED more failed operations\n", "failed", bf, ff, "-", "-")
	}
	if worst != "" {
		fmt.Fprintf(w, "\nclosest to its bound: %s\n", worst)
	}
	return regressions
}

// runDiff gates the fresh result lines against the baseline's;
// regressed reports whether any check failed (the caller turns that
// into exit code 3).
func runDiff(freshPath, basePath string) (regressed bool, err error) {
	bounds, err := readBounds(boundsPath)
	if err != nil {
		return false, err
	}
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	fresh, err := readResults(freshPath)
	if err != nil {
		return false, err
	}
	fmt.Printf("Perf diff: median of %d fresh lines (%s) vs median of %d baseline lines (%s), bounds from %s\n\n",
		len(fresh), freshPath, len(base), basePath, boundsPath)
	if comparePerf(base, fresh, bounds, os.Stdout) > 0 {
		return true, nil
	}
	fmt.Println("no regression past a bound")
	return false, nil
}

// runDiffSelfTest proves the gate fires on every injection class and
// passes the baseline against itself.
func runDiffSelfTest(basePath string) error {
	bounds, err := readBounds(boundsPath)
	if err != nil {
		return err
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	if err := diffSelfTest(base, bounds, os.Stdout); err != nil {
		return err
	}
	fmt.Println("diff gate self-test ok: the baseline passes against itself and every injected regression is caught")
	return nil
}

// diffSelfTest runs the injections against base, printing each one it
// caught, and returns an error naming the first it missed.
func diffSelfTest(base []perfResult, bounds []metricBound, w io.Writer) error {
	if n := comparePerf(base, cloneResults(base), bounds, io.Discard); n != 0 {
		return fmt.Errorf("gate flagged %d regressions comparing the baseline with itself", n)
	}
	type injection struct {
		name   string
		doctor func([]perfResult)
	}
	keys := gatedKeys(base, bounds)
	for _, b := range bounds {
		if !slices.ContainsFunc(keys, func(k string) bool { return metricName(k) == b.Name }) {
			return fmt.Errorf("the baseline carries no %s metric to inject into", b.Name)
		}
	}
	var injections []injection
	for _, k := range keys {
		b, _ := boundFor(bounds, k)
		// Just past the bound, so a gate that applies it loosely fails.
		f := 1 + b.Bound + 0.02
		if b.Better == "higher" {
			f = 1 - b.Bound - 0.02
		}
		injections = append(injections, injection{
			fmt.Sprintf("%s %+.0f%%", k, (f-1)*100),
			func(rs []perfResult) { scaleMetric(rs, k, f) },
		})
	}
	injections = append(injections,
		injection{"one extra failed operation", func(rs []perfResult) { rs[0].Failed = maxFailed(rs) + 1 }},
		injection{"correct: false", func(rs []perfResult) { rs[0].Correct = false }},
		injection{"dropped metric " + keys[0], func(rs []perfResult) {
			for i := range rs {
				delete(rs[i].Metrics, keys[0])
			}
		}},
	)
	for _, inj := range injections {
		doctored := cloneResults(base)
		inj.doctor(doctored)
		if n := comparePerf(base, doctored, bounds, io.Discard); n == 0 {
			return fmt.Errorf("gate missed an injected regression: %s", inj.name)
		}
		fmt.Fprintf(w, "caught: %s\n", inj.name)
	}
	return nil
}

// scaleMetric multiplies key by f on every line.
func scaleMetric(rs []perfResult, key string, f float64) {
	for i := range rs {
		v := rs[i].Metrics[key]
		v.Value *= f
		rs[i].Metrics[key] = v
	}
}

// cloneResults deep-copies result lines so a doctored copy leaves the
// original untouched.
func cloneResults(rs []perfResult) []perfResult {
	out := make([]perfResult, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].Metrics = maps.Clone(r.Metrics)
	}
	return out
}
