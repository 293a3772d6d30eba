package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"daginsched/internal/asm"
	"daginsched/internal/block"
	"daginsched/internal/engine"
	"daginsched/internal/machine"
	"daginsched/internal/tables"
)

// jsonRef renders v as the daemon rendered its bodies with
// encoding/json: one Encode, HTML escaping on, a trailing newline.
func jsonRef(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// table3Units renders the whole Table 3 corpus into 32-block request
// bodies, every block under a label line of its own.
func table3Units() []string {
	var all []*block.Block
	for _, set := range tables.Table3Sets() {
		all = append(all, set.Blocks...)
	}
	var units []string
	for start := 0; start < len(all); start += 32 {
		var sb strings.Builder
		for i, b := range all[start:min(start+32, len(all))] {
			fmt.Fprintf(&sb, "u%d:\n", i)
			sb.WriteString(asm.Print(b.Insts))
		}
		units = append(units, sb.String())
	}
	return units
}

// requireCanonical decodes every JSON line of body into the reference
// type its shape names and requires body to be exactly what
// encoding/json renders for the decoded values.
func requireCanonical(t *testing.T, what string, body []byte) {
	t.Helper()
	var want []byte
	for _, line := range bytes.SplitAfter(body, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var v any
		switch {
		case bytes.HasPrefix(line, []byte(`{"seq":`)):
			v = new(streamRecord)
		case bytes.HasPrefix(line, []byte(`{"done":`)):
			v = new(streamTrailer)
		case bytes.HasPrefix(line, []byte(`{"blocks":`)):
			v = new(scheduleResponse)
		case bytes.HasPrefix(line, []byte(`{"error":`)):
			v = new(errorBody)
		default:
			t.Fatalf("%s: unknown line shape %q", what, line)
		}
		if err := json.Unmarshal(line, v); err != nil {
			t.Fatalf("%s: %v in %q", what, err, line)
		}
		want = append(want, jsonRef(t, v)...)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("%s: body\n%s\nencoding/json renders\n%s", what, body, want)
	}
}

// TestRenderMatchesJSON requires every body the daemon renders to be
// byte-identical to encoding/json's rendering. Every Table 3 unit goes
// to both endpoints and is compared with the reference documents built
// from a cache-disabled engine's run; then every error shape, and the
// in-band trailers, are compared with encoding/json's rendering of
// their own decoded values.
func TestRenderMatchesJSON(t *testing.T) {
	s := newTestServer(t, func(c *engine.Config) { c.Cache = false }, nil)
	ref, err := engine.New(engine.Config{Workers: 1, Model: machine.Super2(), KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	for u, body := range table3Units() {
		blocks, err := scanBlocks(context.Background(), []byte(body))
		if err != nil {
			t.Fatal(err)
		}
		res, err := ref.Run(blocks)
		if err != nil {
			t.Fatal(err)
		}
		doc := scheduleResponse{Blocks: len(blocks), Insts: res.Stats.Insts, TotalCycles: res.Stats.TotalCycles}
		var stream []byte
		for i, b := range blocks {
			r := blockResult{Name: b.Name, Cycles: res.Cycles[i], Arcs: res.Arcs[i], Rung: res.Rungs[i].String(), Order: res.Orders[i]}
			doc.Results = append(doc.Results, r)
			stream = append(stream, jsonRef(t, streamRecord{Seq: int64(i), Name: r.Name, Cycles: r.Cycles, Arcs: r.Arcs, Rung: r.Rung, Order: r.Order})...)
		}
		stream = append(stream, jsonRef(t, streamTrailer{Done: true, Blocks: len(blocks), Insts: res.Stats.Insts})...)
		for path, want := range map[string][]byte{"/v1/schedule": jsonRef(t, doc), "/v1/stream": stream} {
			w := post(s, path, body, nil)
			if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("unit %d on %s: status %d, body\n%.600s\nwant\n%.600s", u, path, w.Code, w.Body.Bytes(), want)
			}
		}
	}

	malformed := corpusAsm(3) + "bX:\n\tld [%fp-4], <%o0&>\n"
	cases := []struct {
		name, path, body string
		scfg             func(*Config)
		code             int
	}{
		{"malformed", "/v1/schedule", malformed, nil, http.StatusBadRequest},
		{"malformed before the first record", "/v1/stream", "\tbogus \"q\"\t\u2028\xff\n", nil, http.StatusBadRequest},
		{"malformed mid-stream", "/v1/stream", malformed, nil, http.StatusOK},
		{"empty", "/v1/schedule", "", nil, http.StatusBadRequest},
		{"empty stream", "/v1/stream", "\n! nothing\n", nil, http.StatusBadRequest},
		{"too large", "/v1/schedule", corpusAsm(20), func(c *Config) { c.MaxBody = 128 }, http.StatusRequestEntityTooLarge},
		{"too large stream", "/v1/stream", corpusAsm(20), func(c *Config) { c.MaxBody = 40 }, http.StatusRequestEntityTooLarge},
		{"cut mid-stream", "/v1/stream", corpusAsm(60), func(c *Config) { c.MaxBody = int64(len(corpusAsm(40))) }, http.StatusOK},
		{"byte budget", "/v1/schedule", corpusAsm(10), func(c *Config) { c.MaxInflightBytes = 64 }, http.StatusTooManyRequests},
	}
	for _, tc := range cases {
		s := newTestServer(t, nil, tc.scfg)
		w := post(s, tc.path, tc.body, nil)
		if w.Code != tc.code {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, w.Code, tc.code, w.Body.String())
		}
		requireCanonical(t, tc.name, w.Body.Bytes())
	}

	s = newTestServer(t, nil, nil)
	body := io.MultiReader(strings.NewReader(corpusAsm(2)), iotest.ErrReader(io.ErrUnexpectedEOF))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", body))
	requireCanonical(t, "read error", w.Body.Bytes())
	requireCanonical(t, "GET", get(s, "/v1/stream").Body.Bytes())

	s = newTestServer(t, nil, nil) // holdEngine needs a fresh rung tally
	release := holdEngine(t, s)
	for _, path := range []string{"/v1/schedule", "/v1/stream"} {
		requireCanonical(t, "deadline on "+path, post(s, path+"?deadline_ms=5", corpusAsm(2), nil).Body.Bytes())
	}
	release()
	s.Drain(context.Background())
	requireCanonical(t, "draining", post(s, "/v1/schedule", corpusAsm(2), nil).Body.Bytes())

	s = newTestServer(t, nil, func(c *Config) { c.MaxQueue = 1 })
	release = holdEngine(t, s)
	requireCanonical(t, "queue", post(s, "/v1/schedule", corpusAsm(2), nil).Body.Bytes())
	release()

	s = newTestServer(t, nil, func(c *Config) { c.TenantRate, c.TenantBurst = 1e-9, 1 })
	tenant := map[string]string{"X-Tenant": "a\u2028<&>"}
	requireCanonical(t, "tenant's first request", post(s, "/v1/stream", corpusAsm(2), tenant).Body.Bytes())
	w = post(s, "/v1/stream", corpusAsm(2), tenant)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("tenant quota: status %d, want 429", w.Code)
	}
	requireCanonical(t, "tenant quota", w.Body.Bytes())
}

// FuzzRenderMatchesJSON checks the strconv renderer against
// encoding/json on hostile values: block names and error text with
// HTML characters, U+2028/U+2029, control bytes and invalid UTF-8, and
// orders empty, absent or long.
func FuzzRenderMatchesJSON(f *testing.F) {
	f.Add("b0", int64(0), int32(7), int32(3), uint8(0), []byte{1, 2, 3}, false, "", 0)
	f.Add("<a&b>", int64(1<<40), int32(-1), int32(0), uint8(1), []byte{}, true, "asm: line 3: bad (\"<x>\")", 3)
	f.Add("\u2028\u2029\x00\x1f\x7f\b\f\n\r\t\"\\", int64(-5), int32(1<<30), int32(9), uint8(2), []byte(nil), false, "\xff\xfe\xc3", 0)
	f.Add("0", int64(109), int32(80), int32(0), uint8(3), []byte("0"), false, "", -14)
	f.Add(".bb12", int64(12), int32(0), int32(0), uint8(3), []byte{0xff, 0x80, 0x7f}, false, "engine: stream cancelled: context deadline exceeded", 0)
	f.Fuzz(func(t *testing.T, name string, seq int64, cycles, arcs int32, rung uint8, order []byte, emptyOrder bool, errMsg string, line int) {
		var ord []int32
		for _, b := range order {
			ord = append(ord, int32(int8(b))*int32(b))
		}
		if len(ord) == 0 && emptyOrder {
			ord = []int32{}
		}
		o := engine.BlockOutcome{Seq: seq, Block: &block.Block{Name: name}, Cycles: cycles, Arcs: arcs, Rung: engine.Rung(rung % uint8(engine.RungIdentity+1)), Order: ord}
		row := blockResult{Name: name, Cycles: cycles, Arcs: arcs, Rung: o.Rung.String(), Order: ord}
		rec := streamRecord{Seq: seq, Name: name, Cycles: cycles, Arcs: arcs, Rung: row.Rung, Order: ord}
		if got, want := append(appendRecord(nil, &o, true), '\n'), jsonRef(t, rec); !bytes.Equal(got, want) {
			t.Fatalf("record %q, encoding/json %q", got, want)
		}

		st := engine.Stats{Blocks: int(arcs), Insts: seq, TotalCycles: int64(cycles) * 3, CacheHits: int64(line), DiskHits: seq / 3, DegradedBlocks: int64(rung)}
		doc := scheduleResponse{Blocks: st.Blocks, Insts: st.Insts, TotalCycles: st.TotalCycles, CacheHits: st.CacheHits, DiskHits: st.DiskHits, Results: []blockResult{row, row}}
		got := appendRecord(appendScheduleHead(nil, &st), &o, false)
		got = appendRecord(append(got, ','), &o, false)
		if got, want := append(got, "]}\n"...), jsonRef(t, doc); !bytes.Equal(got, want) {
			t.Fatalf("document %q, encoding/json %q", got, want)
		}

		tr := streamTrailer{Done: true, Blocks: st.Blocks, Insts: st.Insts, Degraded: st.DegradedBlocks}
		var err error
		if errMsg != "" || line != 0 {
			err = errors.New(errMsg)
			if line > 0 {
				err = fmt.Errorf("wrapped: %w", &asm.ParseError{Line: line, Text: name, Msg: errMsg})
				tr.Line = line
			}
			tr.Done, tr.Error = false, err.Error()
		}
		if got, want := appendTrailer(nil, &st, err), jsonRef(t, tr); !bytes.Equal(got, want) {
			t.Fatalf("trailer %q, encoding/json %q", got, want)
		}
	})
}
