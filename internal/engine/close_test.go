package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/machine"
)

// TestCloseDuringRunStreamBusy pins Close's lifecycle contract on a
// busy engine: a Close issued while RunStream is still draining a
// source blocks until the stream returns, then flushes and releases the
// persistent tier — so every schedule the stream computed is in the
// file for the next engine. A second Close is a no-op, and the closed
// engine still runs, without the disk tier.
func TestCloseDuringRunStreamBusy(t *testing.T) {
	m := machine.Super2()
	blocks := testBlocks(t, 8)
	path := diskPath(t)
	e, err := New(Config{Workers: 2, Model: m, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}

	src := make(chan *block.Block)
	streamDone := make(chan error, 1)
	go func() {
		_, err := e.RunStream(context.Background(), src, nil)
		streamDone <- err
	}()
	src <- blocks[0] // a claiming worker took it, so the stream holds its crew

	closeDone := make(chan error, 1)
	go func() { closeDone <- e.Close() }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned (%v) while RunStream was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	for _, b := range blocks[1:] {
		src <- b
	}
	close(src)
	if err := <-streamDone; err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close after the stream: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	res, err := e.Run(blocks)
	if err != nil {
		t.Fatalf("Run after Close: %v", err)
	}
	if res.Stats.DiskHits != 0 {
		t.Fatalf("closed engine reports %d disk hits", res.Stats.DiskHits)
	}

	// The stream's schedules reached the file before it was released.
	warm, err := New(Config{Workers: 1, Model: m, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngine(t, warm)
	wres, err := warm.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Stats.CacheMisses != 0 || wres.Stats.DiskHits != int64(distinctBlocks(blocks)) {
		t.Fatalf("reopened file: %d misses, %d disk hits; want 0 and %d",
			wres.Stats.CacheMisses, wres.Stats.DiskHits, distinctBlocks(blocks))
	}
}

// TestCloseDuringRunBusy covers the batch entry point: a Close racing
// Run must wait for the run to retire instead of unmapping the tier
// under a worker that is mid-probe. Whichever wins the race, the run
// completes with every block's schedule, Close succeeds, and a second
// Close stays a no-op.
func TestCloseDuringRunBusy(t *testing.T) {
	m := machine.Super2()
	blocks := testBlocks(t, 64)
	e, err := New(Config{Workers: 2, Model: m, CachePath: diskPath(t)})
	if err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(entered)
		res, err := e.Run(blocks)
		if err == nil && len(res.Cycles) != len(blocks) {
			err = fmt.Errorf("Run returned %d schedules, want %d", len(res.Cycles), len(blocks))
		}
		done <- err
	}()
	<-entered

	if err := e.Close(); err != nil {
		t.Fatalf("Close during Run: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestEngineConcurrentCallers hammers one engine from several
// goroutines at once — Run, a RunCtx cancelled while it starts, and
// RunStream — over both cache tiers, then closes it. Every completed
// run must match a single-caller reference byte for byte and report
// exactly its own blocks, and the cache outcomes must account for
// every block run: each run reads only its own crew's tallies.
func TestEngineConcurrentCallers(t *testing.T) {
	m := machine.Super2()
	blocks := testBlocks(t, 40)
	ref, err := New(Config{Workers: 1, Model: m, KeepOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(blocks)
	if err != nil {
		t.Fatal(err)
	}
	same := func(i int, order []int32) error {
		if len(order) != len(want.Orders[i]) {
			return fmt.Errorf("block %d: order length %d, want %d", i, len(order), len(want.Orders[i]))
		}
		for k := range order {
			if order[k] != want.Orders[i][k] {
				return fmt.Errorf("block %d position %d: node %d, want %d", i, k, order[k], want.Orders[i][k])
			}
		}
		return nil
	}

	for _, workers := range []int{2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e, err := New(Config{Workers: workers, Model: m, KeepOrders: true, CachePath: diskPath(t)})
			if err != nil {
				t.Fatal(err)
			}
			var (
				mu           sync.Mutex
				ran, lookups int64
				errs         []error
				wg           sync.WaitGroup
			)
			record := func(st Stats, err error) {
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					errs = append(errs, err)
					return
				}
				if st.Blocks != len(blocks) {
					errs = append(errs, fmt.Errorf("a run reports %d blocks, want %d", st.Blocks, len(blocks)))
				}
				ran += int64(st.Blocks)
				lookups += st.CacheHits + st.DiskHits + st.CacheMisses
			}
			for g := 0; g < 3; g++ {
				wg.Add(3)
				go func() {
					defer wg.Done()
					res, err := e.Run(blocks)
					if err == nil {
						for i := range blocks {
							if err = same(i, res.Orders[i]); err != nil {
								break
							}
						}
					}
					record(res.Stats, err)
				}()
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithCancel(context.Background())
					go cancel()
					res, err := e.RunCtx(ctx, blocks)
					switch {
					case errors.Is(err, context.Canceled):
						return // partial: no Stats to account
					case err == nil:
						for i := range blocks {
							if err = same(i, res.Orders[i]); err != nil {
								break
							}
						}
					}
					record(res.Stats, err)
				}()
				go func() {
					defer wg.Done()
					src := make(chan *block.Block)
					go func() {
						defer close(src)
						for _, b := range blocks {
							src <- b
						}
					}()
					var sinkErr error
					st, err := e.RunStream(context.Background(), src, func(o BlockOutcome) {
						if sinkErr == nil {
							sinkErr = same(int(o.Seq), o.Order)
						}
					})
					if err == nil {
						err = sinkErr
					}
					record(st, err)
				}()
			}
			wg.Wait()
			closeEngine(t, e)
			for _, err := range errs {
				t.Error(err)
			}
			if ran == 0 || lookups != ran {
				t.Fatalf("cache outcomes %d for %d blocks run", lookups, ran)
			}
		})
	}
}
