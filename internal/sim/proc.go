package sim

// Proc is a coroutine-style simulation process. A Proc runs ordinary
// sequential Go code and advances virtual time with Sleep and Await; under
// the hood the engine runs exactly one of {event loop, some Proc} at any
// instant, so Procs need no locking and the interleaving is deterministic.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	yield  chan struct{}
	done   bool

	// wake is the Block wake callback, bound on first use; registering
	// and woken track the Block in progress (see Block).
	wake        func()
	registering bool
	woken       bool
}

// Spawn starts fn as a simulation process at the current virtual time.
// fn begins executing when the engine reaches the spawn event, not
// immediately. The name is for diagnostics only.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	e.procs++
	go func() {
		<-p.resume
		fn(p)
		p.done = true
		p.yield <- struct{}{}
	}()
	e.Schedule(0, func() { e.step(p) })
	return p
}

// step hands control to p and blocks until p yields or finishes.
// It must only be called from engine context (inside an event).
func (e *Engine) step(p *Proc) {
	if p.done {
		return
	}
	p.resume <- struct{}{}
	<-p.yield
	if p.done {
		e.procs--
	}
}

// pause yields control back to the engine and blocks until resumed.
// Must only be called from the proc's own goroutine.
func (p *Proc) pause() {
	p.yield <- struct{}{}
	<-p.resume
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.eng.Schedule(d, func() { p.eng.step(p) })
	p.pause()
}

// Block suspends the process until the wake callback handed to register is
// invoked. register runs immediately in the caller's context; the wake
// callback must be invoked exactly once, either from engine context (inside
// an event), which resumes the process right there without scheduling an
// event, or synchronously from inside register, in which case Block
// returns without suspending. Block is the primitive custom wait-queues
// (rings, tag sets) build on, and how a process waits on a callback-driven
// operation without adding an event to it. The wake callback is bound once
// per process, so Block allocates nothing after its first use.
func (p *Proc) Block(register func(wake func())) {
	if p.wake == nil {
		p.wake = p.onWake
	}
	p.woken = false
	p.registering = true
	register(p.wake)
	p.registering = false
	for !p.woken {
		p.pause()
	}
}

// onWake is the bound Block wake callback.
func (p *Proc) onWake() {
	p.woken = true
	if !p.registering {
		p.eng.step(p)
	}
}

// Await blocks the process until c completes and returns its value/error.
// If c has already completed it returns immediately (consuming no virtual
// time).
func (p *Proc) Await(c *Completion) (any, error) {
	if !c.fired {
		c.onFire(func() { p.eng.step(p) })
		p.pause()
	}
	return c.val, c.err
}

// AwaitTimeout blocks the process until c completes or d elapses, whichever
// comes first. ok reports whether the completion fired; on timeout the
// value/error are zero and the completion stays pending (a late Complete is
// observed by nobody unless another waiter registers). The deadline timer is
// cancelled when the completion wins, so no stray event outlives the wait.
func (p *Proc) AwaitTimeout(c *Completion, d Duration) (val any, err error, ok bool) {
	if c.fired {
		return c.val, c.err, true
	}
	if d <= 0 {
		return nil, nil, false
	}
	waiting := true
	timedOut := false
	var timer EventID
	c.onFire(func() {
		if !waiting {
			return // deadline already resumed the proc
		}
		waiting = false
		p.eng.Cancel(timer)
		p.eng.step(p)
	})
	timer = p.eng.Schedule(d, func() {
		if !waiting {
			return
		}
		waiting = false
		timedOut = true
		p.eng.step(p)
	})
	p.pause()
	if timedOut {
		return nil, nil, false
	}
	return c.val, c.err, true
}

// Completion is a one-shot event carrying a value and an error. It is the
// simulation analogue of a future: model code completes it once, and any
// number of Procs or callbacks observe it.
type Completion struct {
	eng     *Engine
	fired   bool
	val     any
	err     error
	at      Time
	waiters []func()
}

// NewCompletion returns an unfired completion bound to e.
func (e *Engine) NewCompletion() *Completion { return &Completion{eng: e} }

// Complete fires the completion with the given value and error. Waiters run
// as fresh events at the current virtual time, preserving deterministic
// ordering. Completing twice panics: a completion is strictly one-shot.
func (c *Completion) Complete(val any, err error) {
	if c.fired {
		panic("sim: Completion completed twice")
	}
	c.fired = true
	c.val = val
	c.err = err
	c.at = c.eng.Now()
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		w := w
		c.eng.Schedule(0, w)
	}
}

// Done reports whether the completion has fired.
func (c *Completion) Done() bool { return c.fired }

// Value returns the completion value; valid only after Done.
func (c *Completion) Value() any { return c.val }

// Err returns the completion error; valid only after Done.
func (c *Completion) Err() error { return c.err }

// At returns the virtual time the completion fired; valid only after Done.
func (c *Completion) At() Time { return c.at }

// OnComplete registers fn to run (as an event) when the completion fires.
// If already fired, fn is scheduled at the current time.
func (c *Completion) OnComplete(fn func(val any, err error)) {
	wrap := func() { fn(c.val, c.err) }
	if c.fired {
		c.eng.Schedule(0, wrap)
		return
	}
	c.waiters = append(c.waiters, wrap)
}

func (c *Completion) onFire(fn func()) {
	c.waiters = append(c.waiters, fn)
}
