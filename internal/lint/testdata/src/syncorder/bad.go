// Package syncorder is the golden fixture for the concurrency-discipline
// analyzer: a channel send under a lock.
package syncorder

import "sync"

type server struct {
	mu sync.Mutex
	ch chan int
	n  int
}

// notify blocks inside the critical section: a slow receiver convoys every
// other Lock caller.
func (s *server) notify(v int) {
	s.mu.Lock()
	s.ch <- v // want "channel send while holding s.mu"
	s.mu.Unlock()
}
