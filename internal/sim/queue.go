package sim

// Resource is a counted semaphore in virtual time, used to model contended
// capacity: CPU cores, DMA channels, disk queue slots. Acquisition is FIFO.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	// waiters[head:] is the FIFO. The popped front is reused once the
	// queue drains (or slid over when it fills), so a steady wait/release
	// cycle allocates nothing.
	waiters []resWaiter
	head    int
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
	if r.head < len(r.waiters) || r.inUse+n > r.capacity {
		return false
	}
	r.inUse += n
	return true
}

// AcquireThen takes n units and runs fn once they are held. When the units
// are free and nobody is queued, fn runs inline before AcquireThen returns;
// otherwise fn joins the FIFO and runs as a fresh event when a Release
// makes room for it.
func (r *Resource) AcquireThen(n int, fn func()) {
	if r.TryAcquire(n) {
		fn()
		return
	}
	if r.head > 0 && len(r.waiters) == cap(r.waiters) {
		// Full but with a popped front: slide the queue down instead of
		// growing, so a queue that never drains stays bounded.
		k := copy(r.waiters, r.waiters[r.head:])
		clear(r.waiters[k:])
		r.waiters, r.head = r.waiters[:k], 0
	}
	r.waiters = append(r.waiters, resWaiter{n: n, wake: fn})
}

// Release returns n units and wakes FIFO waiters that now fit.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic("sim: bad release count")
	}
	r.inUse -= n
	for r.head < len(r.waiters) {
		w := &r.waiters[r.head]
		if r.inUse+w.n > r.capacity {
			break
		}
		wake := w.wake
		w.wake = nil
		r.head++
		r.inUse += w.n
		r.eng.Schedule(0, wake)
	}
	if r.head == len(r.waiters) {
		r.waiters, r.head = r.waiters[:0], 0
	}
}
