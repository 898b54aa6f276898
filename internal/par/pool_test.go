package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		p.Submit(func() {
			defer wg.Done()
			n.Add(1)
		})
	}
	wg.Wait()
	if got := n.Load(); got != 100 {
		t.Fatalf("ran %d tasks, want 100", got)
	}
	p.Close()
}

func TestPoolCloseDrainsQueue(t *testing.T) {
	p := NewPool(1)
	var n atomic.Int64
	for i := 0; i < 50; i++ {
		p.Submit(func() { n.Add(1) })
	}
	p.Close() // must wait for every queued task
	if got := n.Load(); got != 50 {
		t.Fatalf("Close returned with %d/50 tasks run", got)
	}
}

func TestPoolSerializesAtWidthOne(t *testing.T) {
	p := NewPool(1)
	var order []int
	var mu sync.Mutex
	for i := 0; i < 20; i++ {
		i := i
		p.Submit(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	p.Close()
	for i, v := range order {
		if v != i {
			t.Fatalf("width-1 pool ran out of FIFO order: %v", order)
		}
	}
}

func TestPoolPanicRethrownOnClose(t *testing.T) {
	p := NewPool(2)
	p.Submit(func() { panic("task boom") })
	defer func() {
		if r := recover(); r != "task boom" {
			t.Fatalf("Close recovered %v, want task panic", r)
		}
	}()
	p.Close()
}

func TestPoolSubmitAfterClosePanics(t *testing.T) {
	p := NewPool(1)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit on closed pool did not panic")
		}
	}()
	p.Submit(func() {})
}

// TestPoolFIFOAcrossGrowth drives the ring buffer through its wrap paths
// with the only worker held: growing a queue that runs off the end of the
// slice, wrapping the tail without growing, and wrapping the head as the
// worker drains. Tasks must still run in submit order.
func TestPoolFIFOAcrossGrowth(t *testing.T) {
	p := NewPool(1)
	var (
		mu  sync.Mutex
		ran []int
	)
	next := 0
	submit := func() {
		i := next
		next++
		p.Submit(func() {
			mu.Lock()
			ran = append(ran, i)
			mu.Unlock()
		})
	}
	// hold submits a task that parks the worker until release is closed;
	// started closes once the worker has dequeued it.
	hold := func() (chan struct{}, chan struct{}) {
		started, release := make(chan struct{}), make(chan struct{})
		p.Submit(func() {
			close(started)
			<-release
		})
		return started, release
	}

	// The worker dequeues the first holder, so head sits at slot 1 and
	// the first growth unwraps a queue that runs off the slice's end.
	started, release := hold()
	<-started
	for i := 0; i < 3*minQueue; i++ {
		submit()
	}
	started2, release2 := hold()
	for i := 0; i < minQueue/2; i++ {
		submit()
	}
	close(release)
	<-started2
	// The worker now waits in the second holder with a few tasks queued
	// near the end of the ring: filling it wraps the tail without growing.
	p.mu.Lock()
	size, room := len(p.queue), len(p.queue)-p.n
	p.mu.Unlock()
	for i := 0; i < room; i++ {
		submit()
	}
	p.mu.Lock()
	wrapped := p.head+p.n > len(p.queue) && len(p.queue) == size
	p.mu.Unlock()
	if !wrapped {
		t.Fatal("filling a ring whose head is past slot 0 must wrap its tail in place")
	}
	// Draining the full ring carries the head around the end of the slice.
	close(release2)
	p.Close()

	if len(ran) != next {
		t.Fatalf("ran %d tasks, submitted %d", len(ran), next)
	}
	for i, v := range ran {
		if v != i {
			t.Fatalf("task %d ran at position %d: FIFO order broken", v, i)
		}
	}
}
