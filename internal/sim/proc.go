package sim

// Proc is a coroutine-style simulation process. A Proc runs ordinary
// sequential Go code and advances virtual time with Sleep, and waits on a
// layer's callback API with Block; under the hood the engine runs exactly
// one of {event loop, some Proc} at any instant, so Procs need no locking
// and the interleaving is deterministic.
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
// returns without suspending. Block is the process's only wait: custom
// wait-queues (rings) build on it, and a process waits on any layer's
// callback API by waking from the callback, which adds no event to the
// operation (a caller that wants the wake one event later passes
// func() { eng.Schedule(0, wake) } instead). The wake callback is bound once
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
