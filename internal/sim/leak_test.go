package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// baseline is the goroutine count once the ones earlier tests ended have
// finished exiting.
func baseline() int {
	n := runtime.NumGoroutine()
	for {
		time.Sleep(5 * time.Millisecond)
		again := runtime.NumGoroutine()
		if again == n {
			return n
		}
		n = again
	}
}

// settle waits for the goroutine count to come back down to base: a
// coroutine's goroutine exits just after the switch that ends it.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineLeak: however a run ends, every process it spawned is
// gone afterwards — including the five that sit in Delay (or on a wait
// queue) while a sixth ends the run.
func TestNoGoroutineLeak(t *testing.T) {
	tickers := func(e *Engine) {
		for i := 0; i < 5; i++ {
			e.Spawn("ticker", func(p *Proc) {
				for {
					p.Delay(7)
				}
			})
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"finished", func(t *testing.T) {
			e := NewEngine()
			for i := 0; i < 5; i++ {
				e.Spawn("worker", func(p *Proc) { p.Delay(7) })
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"stop", func(t *testing.T) {
			e := NewEngine()
			tickers(e)
			e.SpawnAt(100, "stopper", func(p *Proc) { e.Stop() })
			ran := false
			e.SpawnAt(1000, "never dispatched", func(p *Proc) { ran = true })
			if err := e.Run(); !errors.Is(err, ErrStopped) {
				t.Fatalf("err = %v, want ErrStopped", err)
			}
			if ran {
				t.Fatal("a process that was never dispatched ran its body while being unwound")
			}
		}},
		{"cancelled", func(t *testing.T) {
			e := NewEngine()
			tickers(e)
			ctx, cancel := context.WithCancel(context.Background())
			e.SpawnAt(100, "canceller", func(p *Proc) { cancel() })
			if err := e.RunContext(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		}},
		{"deadlock", func(t *testing.T) {
			e := NewEngine()
			q := NewWaitQueue(e)
			for i := 0; i < 5; i++ {
				e.Spawn("waiter", func(p *Proc) { q.Wait(p) })
			}
			if err := e.Run(); !errors.Is(err, ErrDeadlock) {
				t.Fatalf("err = %v, want ErrDeadlock", err)
			}
		}},
		{"process panic", func(t *testing.T) {
			e := NewEngine()
			tickers(e)
			e.SpawnAt(100, "boom", func(p *Proc) { panic("boom") })
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want boom", r)
				}
			}()
			_ = e.Run()
			t.Fatal("Run returned instead of panicking")
		}},
		{"limit, then run to the end", func(t *testing.T) {
			e := NewEngine()
			for i := 0; i < 5; i++ {
				e.Spawn("worker", func(p *Proc) { p.Delay(100) })
			}
			if err := e.RunUntil(50); err != nil {
				t.Fatal(err)
			}
			if e.Live() != 5 {
				t.Fatalf("a run stopped at its limit keeps its processes parked: %d live, want 5", e.Live())
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := baseline()
			c.run(t)
			settle(t, base)
		})
	}
}
