package syncorder

import "sync"

type worker struct {
	mu   sync.Mutex
	done chan struct{}
	out  chan int
	n    int
}

// finish signals completion under the lock with close — it never blocks,
// which is the house idiom (the runner's singleflight entries).
func (w *worker) finish() {
	w.mu.Lock()
	w.n++
	close(w.done)
	w.mu.Unlock()
}

// publish sends only after the critical section.
func (w *worker) publish(v int) {
	w.mu.Lock()
	v += w.n
	w.mu.Unlock()
	w.out <- v
}

// urgent is a deliberate exception, hatched with a reason.
func (w *worker) urgent(v int) {
	w.mu.Lock()
	w.out <- v //bfetch:sync-ok buffered diagnostics channel sized for worst case
	w.mu.Unlock()
}
