package sim

// Resource is a counted semaphore in virtual time, used to model contended
// capacity: CPU cores, DMA channels, disk queue slots. Acquisition is FIFO.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []resWaiter
}

type resWaiter struct {
	n    int
	wake func()
}

// NewResource returns a resource with the given total capacity.
func (e *Engine) NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: Resource capacity must be positive")
	}
	return &Resource{eng: e, capacity: capacity}
}

// InUse returns the currently held units.
func (r *Resource) InUse() int { return r.inUse }

// TryAcquire takes n units without blocking, reporting success.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.capacity {
		panic("sim: bad acquire count")
	}
	// FIFO fairness: do not jump the wait queue.
	if len(r.waiters) > 0 || r.inUse+n > r.capacity {
		return false
	}
	r.inUse += n
	return true
}

// Acquire takes n units, blocking the proc until they are available.
func (r *Resource) Acquire(p *Proc, n int) {
	if r.TryAcquire(n) {
		return
	}
	acquired := false
	r.waiters = append(r.waiters, resWaiter{n: n, wake: func() {
		acquired = true
		r.eng.step(p)
	}})
	for !acquired {
		p.pause()
	}
}

// AcquireThen takes n units and runs fn once they are held — the
// callback form of Acquire for event-driven model code that has no Proc.
// When the units are free and nobody is queued, fn runs inline before
// AcquireThen returns; otherwise fn joins the same FIFO as Acquire's
// waiters and runs as a fresh event when a Release makes room for it.
func (r *Resource) AcquireThen(n int, fn func()) {
	if r.TryAcquire(n) {
		fn()
		return
	}
	r.waiters = append(r.waiters, resWaiter{n: n, wake: fn})
}

// Release returns n units and wakes FIFO waiters that now fit.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic("sim: bad release count")
	}
	r.inUse -= n
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.waiters = r.waiters[1:]
		r.inUse += w.n
		r.eng.Schedule(0, w.wake)
	}
}

// Use acquires n units, holds them for d, then releases them. It is the
// common "serve a request on this station" idiom.
func (r *Resource) Use(p *Proc, n int, d Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}
