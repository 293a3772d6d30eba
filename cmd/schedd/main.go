// Schedd is the scheduling daemon: a long-running HTTP service that
// accepts textual assembly — whole units on POST /v1/schedule,
// streamed NDJSON on POST /v1/stream — and answers each basic block's
// schedule from one shared engine. With -cachefile the engine's
// persistent tier makes restarts warm by construction: a killed
// daemon's successor serves byte-identical schedules straight from
// the file.
//
// Usage:
//
//	schedd [-addr :7077] [-model super2] [-workers n] [-cachefile path]
//	       [-blocktimeout d] [-verify] [-queue n] [-rate r] [-burst b]
//	       [-tenantrate r] [-tenantburst b] [-maxbody n] [-maxinflight n]
//	       [-deadline d] [-maxdeadline d]
//
// The daemon prints "schedd: listening on ADDR" once the socket is
// bound (the line supervisors and the CI gate wait for), serves until
// SIGTERM or SIGINT, then drains gracefully: admission stops (/readyz
// flips to 503), in-flight requests finish (any still running after
// 30 s are cancelled), the cache file is flushed via Engine.Close, and
// a one-line drain summary is logged.
//
// Exit codes are distinct by failure class: 0 clean shutdown, 1
// runtime failure (bind or serve error), 2 usage error (bad flag), 3
// bad configuration (a Config the engine or server rejected, or an
// unopenable cache file), 4 internal error (a panic caught at the
// top-level guard — always a bug).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"daginsched/internal/engine"
	"daginsched/internal/machine"
	"daginsched/internal/server"
)

// The daemon's exit codes, one per failure class.
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
	exitConfig  = 3
	exitPanic   = 4
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that opens connections and trickles
// headers cannot hold them open indefinitely. There is deliberately no
// whole-request ReadTimeout: /v1/stream reads its body for as long as
// the stream runs.
const readHeaderTimeout = 10 * time.Second

func main() { os.Exit(run()) }

// run is main behind the panic guard: no failure may crash the daemon
// with a bare stack trace — a caught panic is reported as a one-line
// diagnostic and the distinct internal-error exit code.
func run() (code int) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "schedd: internal error: %v\n", p)
			code = exitPanic
		}
	}()
	var (
		addr         = flag.String("addr", ":7077", "listen address")
		model        = flag.String("model", "super2", "machine model: pipe1, fpu, asym, super2")
		workers      = flag.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
		cachefile    = flag.String("cachefile", "", "persistent schedule-cache file (warm restarts)")
		cachecap     = flag.Int("cachecap", 0, "in-memory cache entry cap (0 = default)")
		blockTimeout = flag.Duration("blocktimeout", 50*time.Millisecond, "per-block soft deadline (0 = none)")
		verify       = flag.Bool("verify", false, "re-simulate every schedule on the scoreboard witness")
		queue        = flag.Int("queue", 0, "engine queue occupancy cap before 429 (0 = default)")
		rate         = flag.Float64("rate", 0, "global admission rate, requests/sec (0 = unlimited)")
		burst        = flag.Float64("burst", 0, "global admission burst (0 = rate)")
		tenantRate   = flag.Float64("tenantrate", 0, "per-tenant rate, requests/sec (0 = unlimited)")
		tenantBurst  = flag.Float64("tenantburst", 0, "per-tenant burst (0 = tenantrate)")
		maxBody      = flag.Int64("maxbody", 0, "per-request body cap in bytes (0 = default)")
		maxInflight  = flag.Int64("maxinflight", 0, "total in-flight request bytes cap (0 = default)")
		deadline     = flag.Duration("deadline", 0, "default per-request deadline (0 = 10s)")
		maxDeadline  = flag.Duration("maxdeadline", 0, "maximum per-request deadline (0 = 60s)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		return fail(exitUsage, "unexpected arguments: %v", flag.Args())
	}
	m, ok := machine.ByName(*model)
	if !ok {
		return fail(exitUsage, "unknown machine model %q", *model)
	}

	eng, err := engine.New(engine.Config{
		Workers:      *workers,
		Model:        m,
		Verify:       *verify,
		Cache:        true,
		CacheCap:     *cachecap,
		CachePath:    *cachefile,
		BlockTimeout: *blockTimeout,
	})
	if err != nil {
		// Both a rejected Config and an unopenable cache file are the
		// operator's configuration to fix, not runtime weather.
		return fail(exitConfig, "%v", err)
	}
	srv, err := server.New(server.Config{
		Engine:           eng,
		MaxQueue:         *queue,
		MaxBody:          *maxBody,
		MaxInflightBytes: *maxInflight,
		Rate:             *rate,
		Burst:            *burst,
		TenantRate:       *tenantRate,
		TenantBurst:      *tenantBurst,
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
	})
	if err != nil {
		return fail(exitConfig, "%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(exitRuntime, "%v", err)
	}
	// The line supervisors (and scripts/ci.sh) wait for; the resolved
	// address matters when -addr asked for port 0.
	fmt.Printf("schedd: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "schedd: %v: draining\n", got)
	case err := <-serveErr:
		return fail(exitRuntime, "serve: %v", err)
	}

	// Drain protocol: stop admission and flush the cache file first
	// (bounded), then close the listener so in-flight responses finish
	// writing. The summary line is the operator's audit trail.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep := srv.Drain(ctx)
	_ = hs.Shutdown(ctx)
	fmt.Fprintf(os.Stderr, "schedd: %s\n", rep)
	if rep.CloseErr != nil {
		return exitRuntime
	}
	return exitOK
}

// fail prints the one-line diagnostic and returns the exit code.
func fail(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "schedd: "+format+"\n", args...)
	return code
}
