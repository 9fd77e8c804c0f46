// iter.Pull arrived in go1.23. go.mod stays at go 1.22 (bench/go.mod, which
// replaces this module, says 1.22), so this line raises the language
// version of this one file; the toolchain must be 1.23 or newer.
//
//go:build go1.23

// Package sim implements a deterministic, cooperatively scheduled
// discrete-event simulation kernel.
//
// Model processes are ordinary Go functions, each run as a coroutine of
// the engine (iter.Pull): a process runs until it blocks on a kernel
// primitive (Delay, WaitQueue, Queue, Resource, ...), at which point it
// yields to the engine, which advances virtual time to the next scheduled
// wakeup and resumes that process. Exactly one of the engine and its
// processes executes at any instant, and control passes between them by
// a direct coroutine switch: the Go scheduler picks nothing, so nothing
// about a run depends on it. A coroutine rather than a free goroutine
// because a simulated wakeup is the hot path of every run: as two
// handoffs through the scheduler's run queue it was nearly half of a
// run's host time.
//
// Determinism rests on the wakeup order alone: wakeups are dispatched by
// (time, schedule order), so a given program produces exactly the same
// event sequence on every run.
//
// Virtual time is measured in abstract ticks; the Cell model interprets
// one tick as one 3.2 GHz processor cycle.
package sim

import (
	"context"
	"errors"
	"fmt"
	"iter"
)

// ErrDeadlock is returned by Run when processes are still alive but no
// future wakeup is scheduled, i.e. every live process waits on a condition
// nobody can signal.
var ErrDeadlock = errors.New("sim: deadlock: live processes but no scheduled events")

// ErrStopped is returned by Run when the simulation was halted by Stop.
var ErrStopped = errors.New("sim: stopped")

// panicAbort is the value used to unwind a parked process when the
// engine shuts down before it finishes.
type panicAbort struct{}

// wakeup is a scheduled resumption of a process at a virtual time.
type wakeup struct {
	at   uint64
	seq  uint64 // tie-breaker: schedule order
	proc *Proc
}

// before is the dispatch order: earlier time first, schedule order within
// one instant. seq is unique, so the order is total and any correct heap
// pops the same sequence.
func (w wakeup) before(o wakeup) bool {
	if w.at != o.at {
		return w.at < o.at
	}
	return w.seq < o.seq
}

// Engine owns virtual time and the wakeup queue.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     uint64
	seq     uint64
	queue   []wakeup // binary min-heap by wakeup.before
	live    int      // processes spawned and not yet finished
	nextID  int
	procs   []*Proc // every spawned process, for shutdown
	stopped bool    // Stop was called

	// Trace, when non-nil, receives a line per scheduler action (debug).
	Trace func(format string, args ...interface{})
}

// NewEngine returns an empty engine at time 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in ticks.
func (e *Engine) Now() uint64 { return e.now }

// Stop halts the simulation: Run returns ErrStopped after the current
// process blocks. Only meaningful from inside a process.
func (e *Engine) Stop() { e.stopped = true }

// Live returns the number of spawned processes that have not finished.
// Inside a process the count includes the caller.
func (e *Engine) Live() int { return e.live }

// Proc is a simulation process. All kernel primitives that can block take
// the Proc of the calling process; calling them from anywhere else
// corrupts the schedule, so processes must not leak their Proc.
type Proc struct {
	eng  *Engine
	id   int
	name string
	done bool

	// The coroutine (iter.Pull): resume runs the process until it next
	// parks or ends, and is only called by the engine; yield is what the
	// process parks in, and returns false when the engine has stopped
	// the coroutine instead of resuming it; stop unwinds a parked
	// process, and keeps one that never ran from running at all.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the spawn-order id of the process (0-based).
func (p *Proc) ID() int { return p.id }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() uint64 { return p.eng.now }

// Spawn creates a process that will first run at the current virtual time,
// after all currently runnable work scheduled earlier. fn runs as a
// coroutine of the engine: on a goroutine of its own, but only ever
// between a dispatch and the next park.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is Spawn with an explicit start time, which must be >= Now.
func (e *Engine) SpawnAt(at uint64, name string, fn func(p *Proc)) *Proc {
	if at < e.now {
		panic(fmt.Sprintf("sim: SpawnAt(%d) in the past (now %d)", at, e.now))
	}
	p := &Proc{eng: e, id: e.nextID, name: name}
	e.nextID++
	e.live++
	e.procs = append(e.procs, p)
	e.schedule(p, at)
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(panicAbort); ok {
					return // engine shut down; exit quietly
				}
				p.done = true
				e.live--
				panic(r) // comes out of resume, on the engine's goroutine
			}
		}()
		fn(p)
		p.done = true
		e.live--
	})
	return p
}

// schedule enqueues a wakeup for p at time at.
func (e *Engine) schedule(p *Proc, at uint64) {
	e.seq++
	w := wakeup{at: at, seq: e.seq, proc: p}
	q := append(e.queue, w)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !w.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = w
	e.queue = q
}

// pop removes and returns the earliest wakeup; the queue must not be empty.
func (e *Engine) pop() wakeup {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	w := q[n]
	q[n] = wakeup{} // do not keep the process reachable from the spare capacity
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(w) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = w
	}
	e.queue = q
	return top
}

// park transfers control from the calling process back to the engine and
// returns when the engine dispatches the process again. If the engine
// shuts down instead, park unwinds the process.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(panicAbort{})
	}
}

// Delay advances the calling process's local time by d ticks.
func (p *Proc) Delay(d uint64) {
	e := p.eng
	e.schedule(p, e.now+d)
	p.park()
}

// Yield reschedules the calling process at the current time, after any
// other work already scheduled for this instant.
func (p *Proc) Yield() { p.Delay(0) }

// Run drives the simulation until no wakeups remain. It returns nil when
// all processes finished, ErrDeadlock when live processes remain but
// nothing is scheduled, and ErrStopped if Stop was called.
func (e *Engine) Run() error { return e.RunUntil(^uint64(0)) }

// ctxStride is how many dispatches pass between context polls in
// RunContext: the engine dispatches millions of wakeups per host second,
// so a poll every 4096 keeps cancellation latency in the microseconds
// while staying invisible on the profile.
const ctxStride = 4096

// RunContext drives the simulation like Run, additionally polling ctx
// between dispatches (the engine loop runs on the caller's goroutine, so
// the poll is race-free). On cancellation or deadline expiry every live
// process is unwound exactly as Stop does and ctx.Err() is returned, so
// callers can distinguish a wall-clock timeout (context.DeadlineExceeded)
// from a simulated-fault stop (ErrStopped).
func (e *Engine) RunContext(ctx context.Context) error { return e.runUntil(ctx, ^uint64(0)) }

// RunUntil drives the simulation until no wakeups remain or the next
// wakeup would be at a time strictly greater than limit. A run that stops
// at its limit keeps its processes parked where they are (and their
// goroutines alive) until it is resumed by another Run* call or the
// engine is run to an end; every other way out — completion, deadlock,
// Stop, cancellation, a panic in a process — leaves no process behind.
func (e *Engine) RunUntil(limit uint64) error { return e.runUntil(nil, limit) }

func (e *Engine) runUntil(ctx context.Context, limit uint64) error {
	// A panic in a process comes out of resume on this goroutine, below.
	// Unwind its parked siblings before it continues up the caller's
	// stack, or a caller that recovers leaks every one of them.
	returned := false
	defer func() {
		if !returned {
			e.abortAll()
		}
	}()
	err := e.loop(ctx, limit)
	returned = true
	return err
}

func (e *Engine) loop(ctx context.Context, limit uint64) error {
	for n := 0; len(e.queue) > 0; n++ {
		if e.stopped {
			e.abortAll()
			return ErrStopped
		}
		if ctx != nil && n%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				e.abortAll()
				return err
			}
		}
		if e.queue[0].at > limit {
			e.now = limit
			return nil
		}
		next := e.pop()
		if next.proc.done {
			continue // stale wakeup for a finished process
		}
		if next.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = next.at
		if e.Trace != nil {
			e.Trace("t=%d dispatch %s", e.now, next.proc.name)
		}
		next.proc.resume() // runs the process until it parks again
	}
	if e.live > 0 {
		n := e.live
		stuck := e.stuckNames()
		e.abortAll()
		return fmt.Errorf("%w (%d live: %s)", ErrDeadlock, n, stuck)
	}
	return nil
}

// stuckNames lists the names of live processes, for deadlock diagnostics.
func (e *Engine) stuckNames() string {
	s := ""
	for _, p := range e.procs {
		if p.done {
			continue
		}
		if s != "" {
			s += ", "
		}
		s += p.name
	}
	return s
}

// abortAll unwinds every live process, whether it is waiting in the wakeup
// queue or parked on a wait queue. A process that was never dispatched
// does not run at all.
func (e *Engine) abortAll() {
	e.queue = nil
	for _, p := range e.procs {
		if !p.done {
			p.stop()
		}
	}
}
