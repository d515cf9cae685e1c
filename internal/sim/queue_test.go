package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := e.NewQueue(0)
	var got []int
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(p, i)
			p.Sleep(10)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, ok := q.Get(p)
			if !ok {
				t.Error("Get returned !ok")
				return
			}
			got = append(got, v.(int))
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestQueueBlockingGet(t *testing.T) {
	e := NewEngine()
	q := e.NewQueue(0)
	var at Time
	e.Spawn("consumer", func(p *Proc) {
		v, _ := q.Get(p)
		at = p.Now()
		if v != "x" {
			t.Errorf("v = %v", v)
		}
	})
	e.Schedule(50, func() { q.TryPut("x") })
	e.Run()
	if at != 50 {
		t.Fatalf("consumer woke at %v, want 50", at)
	}
}

func TestQueueCapacityBlocksPut(t *testing.T) {
	e := NewEngine()
	q := e.NewQueue(2)
	var putDone Time
	e.Spawn("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // must block until a Get
		putDone = p.Now()
	})
	e.Spawn("consumer", func(p *Proc) {
		p.Sleep(100)
		q.Get(p)
	})
	e.Run()
	if putDone != 100 {
		t.Fatalf("third Put completed at %v, want 100", putDone)
	}
}

func TestQueueTryPutFull(t *testing.T) {
	e := NewEngine()
	q := e.NewQueue(1)
	if !q.TryPut(1) {
		t.Fatal("first TryPut failed")
	}
	if q.TryPut(2) {
		t.Fatal("TryPut succeeded on full queue")
	}
	v, ok := q.TryGet()
	if !ok || v != 1 {
		t.Fatalf("TryGet = %v, %v", v, ok)
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet succeeded on empty queue")
	}
}

func TestQueueClose(t *testing.T) {
	e := NewEngine()
	q := e.NewQueue(0)
	q.TryPut(1)
	var vals []any
	var finalOK bool
	e.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				finalOK = false
				return
			}
			vals = append(vals, v)
		}
	})
	e.Schedule(10, func() { q.Close() })
	e.Run()
	if len(vals) != 1 || finalOK {
		t.Fatalf("vals=%v finalOK=%v", vals, finalOK)
	}
	if !q.Closed() {
		t.Fatal("queue not closed")
	}
}

func TestResourceContention(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(1)
	var done []Time
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Use(p, 1, 10)
			done = append(done, p.Now())
		})
	}
	e.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d after drain", r.InUse())
	}
}

func TestResourceMultiUnit(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(4)
	var bigAt Time
	e.Spawn("small1", func(p *Proc) { r.Use(p, 2, 10) })
	e.Spawn("small2", func(p *Proc) { r.Use(p, 2, 30) })
	e.Spawn("big", func(p *Proc) {
		p.Sleep(1)
		r.Acquire(p, 4) // must wait for both smalls
		bigAt = p.Now()
		r.Release(4)
	})
	e.Run()
	if bigAt != 30 {
		t.Fatalf("big acquired at %v, want 30", bigAt)
	}
}

func TestResourceFIFOFairness(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(1)
	var order []int
	e.Spawn("holder", func(p *Proc) { r.Use(p, 1, 100) })
	for i := 0; i < 3; i++ {
		i := i
		e.Schedule(Duration(i+1), func() {
			e.Spawn("w", func(p *Proc) {
				r.Acquire(p, 1)
				order = append(order, i)
				p.Sleep(5)
				r.Release(1)
			})
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("acquisition order = %v, want FIFO", order)
		}
	}
}

// TestResourceAcquireThenFIFO: callback waiters (AcquireThen) and Proc
// waiters (Acquire) share one FIFO, so they are granted in arrival order
// whatever form each took; a free resource runs the callback inline.
func TestResourceAcquireThenFIFO(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(1)
	inline := false
	r.AcquireThen(1, func() { inline = true })
	if !inline {
		t.Fatal("AcquireThen on a free resource did not run fn inline")
	}
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		e.Schedule(Duration(i+1), func() {
			hold := func() {
				order = append(order, i)
				e.Schedule(5, func() { r.Release(1) })
			}
			if i%2 == 0 {
				r.AcquireThen(1, hold)
				return
			}
			e.Spawn("w", func(p *Proc) {
				r.Acquire(p, 1)
				hold()
			})
		})
	}
	e.Schedule(100, func() { r.Release(1) })
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("granted %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want FIFO %v", order, want)
		}
	}
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d after all releases", r.InUse())
	}
}

func TestResourceTryAcquireRespectsWaiters(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(2)
	r.TryAcquire(2)
	e.Spawn("w", func(p *Proc) { r.Acquire(p, 1) })
	e.Schedule(1, func() {
		r.Release(1)
	})
	e.Schedule(2, func() {
		// The waiter got the released unit; queue-jumping must fail even
		// though InUse < Capacity was momentarily true.
		if r.InUse() != 2 {
			t.Errorf("InUse = %d, want 2", r.InUse())
		}
	})
	e.Run()
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(54321)
	same := 0
	a2 := NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGDistributions(t *testing.T) {
	r := NewRNG(7)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.48 || mean > 0.52 {
		t.Fatalf("Float64 mean = %v", mean)
	}

	var esum Duration
	for i := 0; i < n; i++ {
		esum += r.ExpDuration(1000)
	}
	emean := float64(esum) / n
	if emean < 900 || emean > 1100 {
		t.Fatalf("ExpDuration mean = %v, want ~1000", emean)
	}

	var nsum Duration
	for i := 0; i < n; i++ {
		nsum += r.NormDuration(5000, 100)
	}
	nmean := float64(nsum) / n
	if nmean < 4950 || nmean > 5050 {
		t.Fatalf("NormDuration mean = %v, want ~5000", nmean)
	}
}

func TestRNGPermProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}
