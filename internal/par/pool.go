package par

import (
	"sync"
)

// Pool is the persistent counterpart of Do: a fixed set of worker
// goroutines draining a FIFO task queue. Do is the right shape for a
// bounded batch of index-parallel work; Pool serves long-lived callers
// (the monitoring hub) that submit work continuously and bound concurrency
// once, at construction.
//
// The queue is unbounded: callers that need backpressure must bound their
// own outstanding submissions (the hub submits at most one drain task per
// stream). Submit never blocks. The queue is a ring buffer whose
// power-of-two capacity only grows, so enqueue and dequeue cost O(1)
// however deep the backlog: a hub with 100k streams can queue 100k drains
// at once.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queue holds n tasks in FIFO order starting at index head, wrapping
	// mod len(queue).
	queue    []func()
	head, n  int
	closed   bool
	panicked any
	wg       sync.WaitGroup
}

// minQueue is the ring's capacity after the first Submit.
const minQueue = 16

// NewPool starts a pool of the given size; workers <= 0 selects one worker
// per CPU (see Workers).
func NewPool(workers int) *Pool {
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	n := Workers(workers)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.n == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.n == 0 {
			p.mu.Unlock()
			return
		}
		fn := p.queue[p.head]
		p.queue[p.head] = nil // drop the ring's reference to the closure
		p.head = (p.head + 1) & (len(p.queue) - 1)
		p.n--
		p.mu.Unlock()

		p.run(fn)
	}
}

// run executes one task, recording the first panic rather than killing the
// worker; Close rethrows it so task panics are not silently swallowed.
func (p *Pool) run(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if p.panicked == nil {
				p.panicked = r
			}
			p.mu.Unlock()
		}
	}()
	fn()
}

// Submit enqueues fn for execution by some worker, in FIFO order. It never
// blocks. Submitting to a closed pool panics: the pool's owner is
// responsible for quiescing submitters before Close.
func (p *Pool) Submit(fn func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("par: Submit on closed Pool")
	}
	if p.n == len(p.queue) {
		p.grow()
	}
	p.queue[(p.head+p.n)&(len(p.queue)-1)] = fn
	p.n++
	p.mu.Unlock()
	p.cond.Signal()
}

// grow doubles the full ring (or allocates the first one), unwrapping its
// tasks to the front of the new slice; p.mu must be held.
func (p *Pool) grow() {
	next := make([]func(), max(2*len(p.queue), minQueue))
	copied := copy(next, p.queue[p.head:])
	copy(next[copied:], p.queue[:p.head])
	p.queue, p.head = next, 0
}

// Close waits for all queued and running tasks to finish, stops the
// workers, and rethrows the first task panic (if any).
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	if p.panicked != nil {
		panic(p.panicked)
	}
}
