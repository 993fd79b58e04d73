// Sends and Waits with a lock held — here while the goroutine that must
// wake the parker needs the same lock. lockheld refuses every park under
// a lock, whoever the waker is; the one hidden behind a helper it sees
// through the helper's BlocksOnWG summary.
package lockheld

import "sync"

// waitHolding parks on wg.Wait with mu held, but the worker must take mu
// before it reaches Done.
func (c *cache) waitHolding() {
	var wg sync.WaitGroup
	wg.Add(1)
	c.mu.Lock()
	go c.inMemoryThenDone(&wg)
	wg.Wait() // want "c.mu is held across WaitGroup.Wait"
	c.mu.Unlock()
}

func (c *cache) inMemoryThenDone(wg *sync.WaitGroup) {
	c.inMemoryOnly("t", nil)
	wg.Done()
}

// sendHolding parks on an unbuffered send with mu held; the consumer
// locks mu before receiving, and so parks under it too.
func (c *cache) sendHolding() {
	ch := make(chan int)
	c.mu.Lock()
	go func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		<-ch // want "c.mu is held across a channel receive"
	}()
	ch <- 1 // want "c.mu is held across a channel send"
	c.mu.Unlock()
}

// waitAll is the helper shape: its summary carries the Wait.
func waitAll(wg *sync.WaitGroup) { wg.Wait() }

// helperWaitHolding parks inside waitAll with mu held.
func (c *cache) helperWaitHolding() {
	var wg sync.WaitGroup
	wg.Add(1)
	c.mu.Lock()
	go c.inMemoryThenDone(&wg)
	waitAll(&wg) // want "c.mu is held across the call to lockheld.waitAll, which parks on a channel or WaitGroup"
	c.mu.Unlock()
}

// offer parks nowhere: its only send sits in a select with a default.
func offer(ch chan int) {
	select {
	case ch <- 1:
	default:
	}
}

// offerHolding calls a helper that cannot park — compliant.
func (c *cache) offerHolding(ch chan int) {
	c.mu.Lock()
	offer(ch)
	c.mu.Unlock()
}
