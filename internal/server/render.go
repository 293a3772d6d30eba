package server

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"daginsched/internal/engine"
)

// The 200 bodies are rendered with strconv appends into pooled buffers,
// byte for byte as encoding/json renders the scheduleResponse,
// streamRecord and streamTrailer documents the tests keep as the
// reference (TestRenderMatchesJSON, FuzzRenderMatchesJSON).

// appendRecord appends o's row, led by its seq when seq is set.
func appendRecord(b []byte, o *engine.BlockOutcome, seq bool) []byte {
	b = append(b, '{')
	if seq {
		b = append(b, `"seq":`...)
		b = strconv.AppendInt(b, o.Seq, 10)
		b = append(b, ',')
	}
	name := ""
	if o.Block != nil {
		name = o.Block.Name
	}
	b = appendString(append(b, `"name":`...), name)
	b = strconv.AppendInt(append(b, `,"cycles":`...), int64(o.Cycles), 10)
	b = strconv.AppendInt(append(b, `,"arcs":`...), int64(o.Arcs), 10)
	b = appendString(append(b, `,"rung":`...), o.Rung.String())
	if len(o.Order) > 0 {
		b = append(b, `,"order":`...)
		sep := byte('[')
		for _, v := range o.Order {
			b = strconv.AppendInt(append(b, sep), int64(v), 10)
			sep = ','
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendTrailer appends the stream's terminal line: done when err is
// nil, else the error and, for a parse error, its line.
func appendTrailer(b []byte, st *engine.Stats, err error) []byte {
	b = strconv.AppendBool(append(b, `{"done":`...), err == nil)
	b = strconv.AppendInt(append(b, `,"blocks":`...), int64(st.Blocks), 10)
	b = strconv.AppendInt(append(b, `,"insts":`...), st.Insts, 10)
	b = strconv.AppendInt(append(b, `,"degraded":`...), st.DegradedBlocks, 10)
	if err != nil && err.Error() != "" {
		b = appendString(append(b, `,"error":`...), err.Error())
	}
	if line := parseLine(err); line != 0 {
		b = strconv.AppendInt(append(b, `,"line":`...), int64(line), 10)
	}
	return append(b, "}\n"...)
}

// appendScheduleHead appends a /v1/schedule document up to its first
// row.
func appendScheduleHead(b []byte, st *engine.Stats) []byte {
	b = strconv.AppendInt(append(b, `{"blocks":`...), int64(st.Blocks), 10)
	b = strconv.AppendInt(append(b, `,"insts":`...), st.Insts, 10)
	b = strconv.AppendInt(append(b, `,"total_cycles":`...), st.TotalCycles, 10)
	b = strconv.AppendInt(append(b, `,"cache_hits":`...), st.CacheHits, 10)
	b = strconv.AppendInt(append(b, `,"disk_hits":`...), st.DiskHits, 10)
	return append(b, `,"results":[`...)
}

// appendString appends s as a JSON string. A string of plain ASCII,
// which every rung and nearly every block name is, is copied between
// quotes; any other takes encoding/json's own escaping (HTML-safe <, >
// and &, control bytes, invalid UTF-8, U+2028/U+2029), so the two
// cannot disagree.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
