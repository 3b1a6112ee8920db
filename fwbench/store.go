package main

import (
	"strings"
	"sync"
	"time"

	"flashwalker/internal/blob"
)

// opStat accumulates one kind of store operation.
type opStat struct {
	N     int64
	Bytes int64
	Busy  time.Duration
}

// storeStats is a copy of a recordingStore's counters: per operation
// ("put", "get", ...) and per operation and key prefix ("put jobs",
// "append streams", ...).
type storeStats map[string]opStat

// minus returns the counters accumulated since base.
func (s storeStats) minus(base storeStats) storeStats {
	out := storeStats{}
	for k, v := range s {
		b := base[k]
		out[k] = opStat{N: v.N - b.N, Bytes: v.Bytes - b.Bytes, Busy: v.Busy - b.Busy}
	}
	return out
}

// recordingStore is a blob.Store that passes every call through to inner
// unchanged and counts it: calls, bytes moved, and time spent. onPut, when
// set, sees every successful Put after it is stored.
type recordingStore struct {
	inner blob.Store
	onPut func(key string, data []byte)

	mu    sync.Mutex
	stats storeStats
}

func newRecordingStore(inner blob.Store) *recordingStore {
	return &recordingStore{inner: inner, stats: storeStats{}}
}

func (r *recordingStore) note(op, key string, n int, start time.Time) {
	d := time.Since(start)
	r.mu.Lock()
	for _, k := range []string{op, op + " " + keyPrefix(key)} {
		s := r.stats[k]
		s.N++
		s.Bytes += int64(n)
		s.Busy += d
		r.stats[k] = s
	}
	r.mu.Unlock()
}

// snapshot copies the counters.
func (r *recordingStore) snapshot() storeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(storeStats, len(r.stats))
	for k, v := range r.stats {
		out[k] = v
	}
	return out
}

func (r *recordingStore) Put(key string, data []byte) error {
	t := time.Now()
	err := r.inner.Put(key, data)
	r.note("put", key, len(data), t)
	if err == nil && r.onPut != nil {
		r.onPut(key, data)
	}
	return err
}

func (r *recordingStore) Get(key string) ([]byte, error) {
	t := time.Now()
	data, err := r.inner.Get(key)
	r.note("get", key, len(data), t)
	return data, err
}

func (r *recordingStore) Append(key string, data []byte) error {
	t := time.Now()
	err := r.inner.Append(key, data)
	r.note("append", key, len(data), t)
	return err
}

func (r *recordingStore) Delete(key string) error {
	t := time.Now()
	err := r.inner.Delete(key)
	r.note("delete", key, 0, t)
	return err
}

func (r *recordingStore) List(prefix string) ([]string, error) {
	t := time.Now()
	keys, err := r.inner.List(prefix)
	r.note("list", prefix, 0, t)
	return keys, err
}

// keyPrefix is a blob key's first path segment ("jobs", "snapshots", ...).
func keyPrefix(key string) string {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i]
	}
	return key
}
