package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/experiments"
)

// Cache is the content-addressed result store: tables keyed by the
// canonical spec hash, held in memory and — when a directory is configured
// — persisted as one JSON file per entry so repeated sweeps are free across
// process invocations.
//
// Invariant: only successful runs are ever stored. The Engine calls Put
// strictly after a run returns without error, so a cache entry always
// denotes a table that was actually produced, and a failed run is retried
// on the next call instead of poisoning the key forever.
type Cache struct {
	mu  sync.Mutex
	mem map[string][]byte
	dir string
}

// NewCache builds a cache; dir == "" keeps entries in memory only,
// otherwise entries persist under dir as <hash>.json files.
func NewCache(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("scenario: creating cache dir: %w", err)
		}
	}
	return &Cache{mem: map[string][]byte{}, dir: dir}, nil
}

// path returns the on-disk location of one entry.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached table for a hash. Each call decodes a fresh Table
// from the stored bytes, so callers can never mutate the cache through a
// returned value. Unreadable or corrupt disk entries read as misses.
func (c *Cache) Get(key string) (experiments.Table, bool) {
	c.mu.Lock()
	b, ok := c.mem[key]
	c.mu.Unlock()
	if !ok && c.dir != "" {
		disk, err := os.ReadFile(c.path(key))
		if err != nil {
			return experiments.Table{}, false
		}
		b, ok = disk, true
		c.mu.Lock()
		c.mem[key] = disk
		c.mu.Unlock()
	}
	if !ok {
		return experiments.Table{}, false
	}
	var t experiments.Table
	if err := json.Unmarshal(b, &t); err != nil {
		return experiments.Table{}, false
	}
	return t, true
}

// Put stores one successful run's table under its spec hash. The disk write
// goes through a temp file + rename so a crashed writer can never leave a
// half-written entry that later reads as a (corrupt) hit.
func (c *Cache) Put(key string, t experiments.Table) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: encoding table: %w", err)
	}
	b = append(b, '\n')
	c.mu.Lock()
	c.mem[key] = b
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}

// Len reports the number of in-memory entries (tests and stats).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}
