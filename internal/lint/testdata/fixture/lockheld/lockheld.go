// Package lockheld is a gislint test fixture: mutexes held (and not
// held) across blocking operations. Lines carrying a want comment must
// produce a diagnostic containing the quoted substring; unmarked lines
// must not.
package lockheld

import (
	"context"
	"sync"

	"gis/internal/source"
)

// cache guards a table-info map and talks to a remote source.
type cache struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	src source.Source
	val map[string]*source.TableInfo
}

// rpcUnderLock holds mu across a wire round-trip — the 2PC fan-out
// deadlock shape.
func (c *cache) rpcUnderLock(ctx context.Context, table string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	info, err := c.src.TableInfo(ctx, table) // want "c.mu is held across the call to TableInfo"
	if err != nil {
		return err
	}
	c.val[table] = info
	return nil
}

// rlockUnderLock shows read locks count too.
func (c *cache) rlockUnderLock(ctx context.Context, table string) (*source.TableInfo, error) {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.src.TableInfo(ctx, table) // want "c.rw is held across the call to TableInfo"
}

// recvUnderLock blocks on a receive with the lock held.
func (c *cache) recvUnderLock(ch chan int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return <-ch // want "c.mu is held across a channel receive"
}

// rangeUnderLock drains a channel while holding the lock.
func (c *cache) rangeUnderLock(ch chan int) int {
	total := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for v := range ch { // want "c.mu is held across a channel range loop"
		total += v
	}
	return total
}

// unlockFirst releases before the round-trip: lookup under lock, fetch
// outside it.
func (c *cache) unlockFirst(ctx context.Context, table string) (*source.TableInfo, error) {
	c.mu.Lock()
	cached := c.val[table]
	c.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	return c.src.TableInfo(ctx, table)
}

// nonBlockingSelect cannot stall: the default arm makes the send
// best-effort.
func (c *cache) nonBlockingSelect(ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

// spawnUnderLock blocks a spawned goroutine, not the lock holder.
func (c *cache) spawnUnderLock(ctx context.Context, table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go c.src.TableInfo(ctx, table)
}

// inMemoryOnly brackets pure map access — the intended use.
func (c *cache) inMemoryOnly(table string, info *source.TableInfo) {
	c.mu.Lock()
	c.val[table] = info
	c.mu.Unlock()
}

// embedded carries a promoted mutex: e.Lock() and e.Mutex.Lock() name
// the same instance and must key alike.
type embedded struct {
	sync.Mutex
	src source.Source
}

// fieldLockPromotedUnlock locks through the field and releases through
// the promoted method: nothing is held at the round-trip.
func (e *embedded) fieldLockPromotedUnlock(ctx context.Context, table string) (*source.TableInfo, error) {
	e.Mutex.Lock()
	e.Unlock()
	return e.src.TableInfo(ctx, table)
}

// promotedLockFieldUnlock is the mirror spelling with the round-trip
// inside the critical section.
func (e *embedded) promotedLockFieldUnlock(ctx context.Context, table string) error {
	e.Lock()
	_, err := e.src.TableInfo(ctx, table) // want "e.Mutex is held across the call to TableInfo"
	e.Mutex.Unlock()
	return err
}

// ensureLocked leaves mu locked for its caller.
func (c *cache) ensureLocked() {
	c.mu.Lock()
}

// rpcAfterEnsureLocked acquires through the helper, so no Lock call
// appears in this body, and still crosses the wire holding mu.
func (c *cache) rpcAfterEnsureLocked(ctx context.Context, table string) error {
	c.ensureLocked()
	_, err := c.src.TableInfo(ctx, table) // want "c.mu is held across the call to TableInfo"
	c.mu.Unlock()
	return err
}
