package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureLines are three result lines of a two-workload run, spread
// the way repeated runs spread.
const fixtureLines = `{"correct":true,"attempted":100,"failed":0,"metrics":{"cold-batch/insts_per_s":{"value":1000000,"unit":"inst/s"},"cold-batch/sched_cycles":{"value":5000,"unit":"cycles"},"cold-batch/setup_s":{"value":2,"unit":"s"},"serve/unit_p50_ms":{"value":10,"unit":"ms"},"serve/peak_rss_mb":{"value":40,"unit":"MB"},"serve/layer_ratio":{"value":0.5,"unit":"ratio"}}}
{"correct":true,"attempted":100,"failed":0,"metrics":{"cold-batch/insts_per_s":{"value":900000,"unit":"inst/s"},"cold-batch/sched_cycles":{"value":5000,"unit":"cycles"},"cold-batch/setup_s":{"value":2.2,"unit":"s"},"serve/unit_p50_ms":{"value":12,"unit":"ms"},"serve/peak_rss_mb":{"value":41,"unit":"MB"},"serve/layer_ratio":{"value":0.1,"unit":"ratio"}}}

{"correct":true,"attempted":100,"failed":0,"metrics":{"cold-batch/insts_per_s":{"value":1100000,"unit":"inst/s"},"cold-batch/sched_cycles":{"value":5000,"unit":"cycles"},"cold-batch/setup_s":{"value":1.9,"unit":"s"},"serve/unit_p50_ms":{"value":11,"unit":"ms"},"serve/peak_rss_mb":{"value":39,"unit":"MB"},"serve/layer_ratio":{"value":0.9,"unit":"ratio"}}}
`

// fixtureBounds mirror BENCHMARK.json's end_to_end list.
var fixtureBounds = []metricBound{
	{Name: "setup_s", Better: "lower", Bound: 0.25},
	{Name: "insts_per_s", Better: "higher", Bound: 0.25},
	{Name: "unit_p50_ms", Better: "lower", Bound: 0.25},
	{Name: "sched_cycles", Better: "lower", Bound: 0.03},
	{Name: "peak_rss_mb", Better: "lower", Bound: 0.25},
}

func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func fixture(t *testing.T) []perfResult {
	t.Helper()
	rs, err := readResults(writeFile(t, "base.ndjson", fixtureLines))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("read %d lines, want 3 (the blank line skipped)", len(rs))
	}
	return rs
}

// TestCompareMedians: the gate compares medians, so one fresh run far
// outside a bound does not fail it while the median stays inside, and
// a median past a bound does. A metric no bound names is not gated.
func TestCompareMedians(t *testing.T) {
	base := fixture(t)
	if m, _ := median(base, "cold-batch/insts_per_s"); m != 1e6 {
		t.Fatalf("median %v, want 1e6", m)
	}
	if n := comparePerf(base, cloneResults(base), fixtureBounds, io.Discard); n != 0 {
		t.Fatalf("baseline against itself: %d regressions", n)
	}

	fresh := cloneResults(base)
	fresh[0].Metrics["cold-batch/insts_per_s"] = metricValue{Value: 1}
	fresh[1].Metrics["serve/layer_ratio"] = metricValue{Value: 100}
	if n := comparePerf(base, fresh, fixtureBounds, io.Discard); n != 0 {
		t.Fatalf("one slow run and an ungated metric: %d regressions, want 0", n)
	}

	fresh = cloneResults(base)
	scaleMetric(fresh, "serve/unit_p50_ms", 1.24)
	if n := comparePerf(base, fresh, fixtureBounds, io.Discard); n != 0 {
		t.Fatalf("p50 +24%% inside a 25%% bound: %d regressions, want 0", n)
	}
	scaleMetric(fresh, "serve/unit_p50_ms", 1.1)
	var out strings.Builder
	if n := comparePerf(base, fresh, fixtureBounds, &out); n != 1 {
		t.Fatalf("p50 +36%%: %d regressions, want 1\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "serve/unit_p50_ms") || !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("report does not name the regressed metric:\n%s", out.String())
	}
}

// TestCompareInjections: each injection class is flagged on its own.
func TestCompareInjections(t *testing.T) {
	base := fixture(t)
	cases := []struct {
		name   string
		doctor func([]perfResult)
	}{
		{"insts_per_s cut past its bound", func(rs []perfResult) { scaleMetric(rs, "cold-batch/insts_per_s", 0.7) }},
		{"unit_p50_ms raised past its bound", func(rs []perfResult) { scaleMetric(rs, "serve/unit_p50_ms", 1.3) }},
		{"setup_s raised past its bound", func(rs []perfResult) { scaleMetric(rs, "cold-batch/setup_s", 1.3) }},
		{"sched_cycles +5%", func(rs []perfResult) { scaleMetric(rs, "cold-batch/sched_cycles", 1.05) }},
		{"peak_rss_mb raised past its bound", func(rs []perfResult) { scaleMetric(rs, "serve/peak_rss_mb", 1.3) }},
		{"one extra failed operation", func(rs []perfResult) { rs[2].Failed++ }},
		{"correct: false", func(rs []perfResult) { rs[1].Correct = false }},
		{"metric dropped from one line", func(rs []perfResult) { delete(rs[0].Metrics, "serve/peak_rss_mb") }},
		{"workload missing", func(rs []perfResult) {
			for i := range rs {
				delete(rs[i].Metrics, "serve/unit_p50_ms")
				delete(rs[i].Metrics, "serve/peak_rss_mb")
			}
		}},
	}
	for _, tc := range cases {
		fresh := cloneResults(base)
		tc.doctor(fresh)
		if n := comparePerf(base, fresh, fixtureBounds, io.Discard); n == 0 {
			t.Errorf("%s: not flagged", tc.name)
		}
	}
	// The doctoring above never touched the baseline.
	if n := comparePerf(base, cloneResults(base), fixtureBounds, io.Discard); n != 0 {
		t.Fatalf("baseline changed under the injections: %d regressions", n)
	}
}

// TestDiffSelfTest: the self-test passes on a sound baseline and
// reports every injection it made, and refuses a baseline that lacks
// a metric it must inject into.
func TestDiffSelfTest(t *testing.T) {
	base := fixture(t)
	var out strings.Builder
	if err := diffSelfTest(base, fixtureBounds, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cold-batch/insts_per_s -27%", "serve/unit_p50_ms +27%", "cold-batch/setup_s +27%",
		"cold-batch/sched_cycles +5%", "one extra failed operation", "correct: false", "dropped metric",
	} {
		if !strings.Contains(out.String(), "caught: "+want) {
			t.Errorf("self-test did not report %q:\n%s", want, out.String())
		}
	}
	for i := range base {
		delete(base[i].Metrics, "cold-batch/sched_cycles")
	}
	if err := diffSelfTest(base, fixtureBounds, io.Discard); err == nil {
		t.Fatal("self-test accepted a baseline with no sched_cycles metric")
	}
}

// TestReadResultsMalformed: a line that is not a result object, and a
// file with no lines, are errors naming the file.
func TestReadResultsMalformed(t *testing.T) {
	for name, data := range map[string]string{
		"not json":     "perfbench: cold-batch: boom\n",
		"no metrics":   `{"correct":true,"attempted":1,"failed":0}` + "\n",
		"truncated":    strings.SplitN(fixtureLines, "\n", 2)[0][:80] + "\n",
		"empty":        "",
		"only blank":   "\n\n",
		"wrong schema": `{"correct":"yes","metrics":{}}` + "\n",
	} {
		if _, err := readResults(writeFile(t, "x.ndjson", data)); err == nil || !strings.Contains(err.Error(), "x.ndjson") {
			t.Errorf("%s: err %v, want an error naming the file", name, err)
		}
	}
}

// TestReadBounds: the committed BENCHMARK.json parses and gates the
// five end-to-end metrics; a bound with no direction is refused.
func TestReadBounds(t *testing.T) {
	bounds, err := readBounds(filepath.Join("..", "..", boundsPath))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range fixtureBounds {
		b, ok := boundFor(bounds, "any/"+want.Name)
		if !ok || b != want {
			t.Errorf("bound for %s: %+v, want %+v", want.Name, b, want)
		}
	}
	bad := writeFile(t, "BENCHMARK.json", `{"end_to_end":[{"name":"x","bound":0.1}]}`)
	if _, err := readBounds(bad); err == nil {
		t.Fatal("bound with no better direction accepted")
	}
}
