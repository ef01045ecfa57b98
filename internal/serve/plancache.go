package serve

import (
	"sync"
	"sync/atomic"

	"m2m"
)

// planEntry is one compiled-and-optimized program shared by every session
// whose (topology, workload, router) triple hashes to the same key. All
// fields are treated as immutable after construction: sessions adopt the
// plan by reference (replans share its unchanged edge solutions, which
// nothing mutates), never touch the instance, and never mutate the
// network's graph in place — topology surgery always rebuilds into fresh
// structures.
type planEntry struct {
	net   *m2m.Network
	specs []m2m.Spec
	kind  m2m.RouterKind
	inst  *m2m.Instance
	plan  *m2m.Plan
}

// sessionSpecs returns a fresh top-level spec slice for one session.
// Sessions prune and re-admit specs by reslicing/rebuilding their own
// slice; the underlying Spec values (and their aggregation Funcs) are
// read-only and safely shared.
func (e *planEntry) sessionSpecs() []m2m.Spec {
	out := make([]m2m.Spec, len(e.specs))
	copy(out, e.specs)
	return out
}

// planCall is one in-flight cache fill; latecomers for the same key block
// on done instead of optimizing again.
type planCall struct {
	done  chan struct{}
	entry *planEntry
	err   error
}

// planCache memoizes optimized plans by request hash with singleflight
// semantics: under a thundering herd of identical tenants exactly one
// goroutine pays for Optimize while the rest wait for its result. Failed
// fills are not cached — the next request retries.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*planEntry
	calls   map[string]*planCall

	// Counters exported via /v1/stats.
	hits   atomic.Int64
	misses atomic.Int64
	dedups atomic.Int64
}

func newPlanCache() *planCache {
	return &planCache{
		entries: make(map[string]*planEntry),
		calls:   make(map[string]*planCall),
	}
}

// get returns the entry for key, building it with build on a miss. Build
// runs without the cache lock held, so a slow optimization never blocks
// hits on other keys.
func (c *planCache) get(key string, build func() (*planEntry, error)) (*planEntry, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return e, nil
	}
	if call, ok := c.calls[key]; ok {
		c.mu.Unlock()
		c.dedups.Add(1)
		<-call.done
		return call.entry, call.err
	}
	call := &planCall{done: make(chan struct{})}
	c.calls[key] = call
	c.mu.Unlock()

	c.misses.Add(1)
	call.entry, call.err = build()

	c.mu.Lock()
	delete(c.calls, key)
	if call.err == nil {
		c.entries[key] = call.entry
	}
	c.mu.Unlock()
	close(call.done)
	return call.entry, call.err
}

// size reports the number of cached plans.
func (c *planCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// buildEntry materializes the shared parts of a create request: network,
// workload, routing instance, optimal plan.
func buildEntry(topo *TopologySpec, wl *WorkloadSpec, router string) (*planEntry, error) {
	kind, err := routerKind(router)
	if err != nil {
		return nil, err
	}
	net, err := topo.build()
	if err != nil {
		return nil, err
	}
	specs, err := wl.resolve(net)
	if err != nil {
		return nil, err
	}
	inst, err := net.NewInstance(specs, kind)
	if err != nil {
		return nil, err
	}
	p, err := m2m.Optimize(inst)
	if err != nil {
		return nil, err
	}
	return &planEntry{net: net, specs: specs, kind: kind, inst: inst, plan: p}, nil
}
