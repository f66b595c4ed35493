// Package memo is the one bounded memo of the query path: a sharded,
// string-keyed cache that the front-end's sentence, phrase-prep and
// exception-name caches, the spell-repair memo and the word model's vector
// memo all use. Every value it holds must be a deterministic function of
// its key, so a lost or evicted entry costs only a recomputation.
package memo

import "sync"

// shards spreads lock contention; perShard bounds residency. The caps are
// sized far above any seeded corpus (32×4096 entries) so eviction never
// perturbs the deterministic hit/miss counters in CI; under adversarial
// input the two-generation rotation below still bounds memory.
const (
	shards   = 32
	perShard = 4096
)

// Cap is the most entries a Cache holds across all shards and both
// generations.
const Cap = shards * perShard

type shard[V any] struct {
	mu   sync.RWMutex
	cur  map[string]V
	prev map[string]V
}

// Cache is a sharded string-keyed cache bounded by two-generation rotation:
// when a shard's current map reaches half its cap it becomes the previous
// generation and a fresh map takes over, so residency per shard never
// exceeds perShard while hot keys survive via promotion. A Cache is safe
// for concurrent use.
type Cache[V any] struct {
	shards [shards]shard[V]
}

// New returns an empty Cache.
func New[V any]() *Cache[V] {
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i].cur = make(map[string]V)
	}
	return c
}

// hash is FNV-1a over the key bytes.
func hash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// Get returns the value resident under key. A hit in the previous
// generation is promoted into the current one.
func (c *Cache[V]) Get(key string) (V, bool) {
	sh := &c.shards[hash(key)%shards]
	sh.mu.RLock()
	v, ok := sh.cur[key]
	if ok {
		sh.mu.RUnlock()
		return v, true
	}
	v, ok = sh.prev[key]
	sh.mu.RUnlock()
	if ok {
		c.Put(key, v) // promote so hot keys survive rotation
		return v, true
	}
	var zero V
	return zero, false
}

// Put inserts key if absent and reports (resident value, whether this call
// created the entry). Under a concurrent duplicate compute the first insert
// wins and every later caller gets the winner's value with created=false, so
// "created" counts each distinct key exactly once — the property that keeps
// miss counters deterministic at any worker count.
func (c *Cache[V]) Put(key string, v V) (V, bool) {
	sh := &c.shards[hash(key)%shards]
	sh.mu.Lock()
	if old, ok := sh.cur[key]; ok {
		sh.mu.Unlock()
		return old, false
	}
	if len(sh.cur) >= perShard/2 {
		sh.prev = sh.cur
		sh.cur = make(map[string]V, perShard/2)
	}
	sh.cur[key] = v
	sh.mu.Unlock()
	return v, true
}

// Len returns the resident entry count across all shards and generations.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.cur) + len(sh.prev)
		sh.mu.RUnlock()
	}
	return n
}
