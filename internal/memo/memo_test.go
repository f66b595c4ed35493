package memo

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// sameShard returns n distinct keys, none equal to key, that hash to key's
// shard.
func sameShard(key string, n int) []string {
	want := hash(key) % shards
	var out []string
	for i := 0; len(out) < n; i++ {
		k := "k" + strconv.Itoa(i)
		if hash(k)%shards == want {
			out = append(out, k)
		}
	}
	return out
}

func TestBound(t *testing.T) {
	c := New[int]()
	for i := 0; i < 2*Cap; i++ {
		c.Put(strconv.Itoa(i), i)
		if i%Cap == 0 || i == 2*Cap-1 {
			if n := c.Len(); n > Cap {
				t.Fatalf("after %d puts Len = %d, cap %d", i+1, n, Cap)
			}
		}
	}
	for i := range c.shards {
		if n := len(c.shards[i].cur) + len(c.shards[i].prev); n > perShard {
			t.Fatalf("shard %d holds %d entries, cap %d", i, n, perShard)
		}
	}
}

// TestPromotion: a previous-generation hit moves into the current
// generation, so it outlives the next rotation, while a key nobody read
// is dropped by it.
func TestPromotion(t *testing.T) {
	c := New[int]()
	fill := sameShard("hot", perShard)
	cold := fill[0]
	c.Put("hot", 1)
	c.Put(cold, 2)
	// Fill the current generation to half the shard's cap; the next put
	// rotates "hot" and cold into the previous generation.
	next := 1
	for ; next < perShard/2-1; next++ {
		c.Put(fill[next], 0)
	}
	c.Put(fill[next], 0)
	next++
	sh := &c.shards[hash("hot")%shards]
	if _, ok := sh.prev["hot"]; !ok {
		t.Fatal("hot was not rotated into the previous generation")
	}
	if v, ok := c.Get("hot"); !ok || v != 1 {
		t.Fatalf("previous-generation Get = %d, %v; want 1, true", v, ok)
	}
	if _, ok := sh.cur["hot"]; !ok {
		t.Fatal("previous-generation hit was not promoted to the current generation")
	}
	// Rotate once more: the promoted key survives, the unread one is gone.
	for ; next < perShard; next++ {
		c.Put(fill[next], 0)
	}
	if v, ok := c.Get("hot"); !ok || v != 1 {
		t.Fatalf("promoted key after rotation: Get = %d, %v; want 1, true", v, ok)
	}
	if _, ok := c.Get(cold); ok {
		t.Fatal("unread key survived two rotations")
	}
}

// TestConcurrentPutCreatesOnce: goroutines racing to insert the same keys
// see each key created exactly once, and every later Put returns the
// winner's value.
func TestConcurrentPutCreatesOnce(t *testing.T) {
	const keys, workers = 1000, 8
	c := New[int]()
	var created [keys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := strconv.Itoa(k)
				v, ok := c.Put(key, w)
				if ok {
					created[k].Add(1)
				}
				if got, hit := c.Get(key); !hit || got != v {
					t.Errorf("key %s: Get = %d, %v after Put returned %d", key, got, hit, v)
				}
			}
		}(w)
	}
	wg.Wait()
	for k := range created {
		if n := created[k].Load(); n != 1 {
			t.Errorf("key %d created %d times, want 1", k, n)
		}
	}
	if n := c.Len(); n != keys {
		t.Errorf("Len = %d, want %d", n, keys)
	}
}
