package main

import (
	"errors"
	"reflect"
	"testing"

	"flashwalker/internal/blob"
)

// The recording store must pass blob.Store semantics through unchanged:
// every call returns what the same call on the bare store returns.
func TestRecordingStorePassesThrough(t *testing.T) {
	bare := blob.NewMem()
	var puts []string
	rec := newRecordingStore(blob.NewMem())
	rec.onPut = func(key string, _ []byte) { puts = append(puts, key) }
	for _, s := range []blob.Store{bare, rec} {
		must(t, s.Put("jobs/job-1.json", []byte(`{"id":"job-1"}`)))
		must(t, s.Put("snapshots/job-1.snap", []byte("image")))
		must(t, s.Append("streams/job-1.ndjson", []byte("a\n")))
		must(t, s.Append("streams/job-1.ndjson", []byte("b\n")))
		must(t, s.Delete("snapshots/job-1.snap"))
		must(t, s.Delete("snapshots/absent.snap"))
	}
	for _, key := range []string{"jobs/job-1.json", "streams/job-1.ndjson", "snapshots/job-1.snap", "../escape"} {
		want, wantErr := bare.Get(key)
		got, gotErr := rec.Get(key)
		if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) ||
			errors.Is(gotErr, blob.ErrNotFound) != errors.Is(wantErr, blob.ErrNotFound) {
			t.Errorf("Get(%q) = %q, %v; bare store gives %q, %v", key, got, gotErr, want, wantErr)
		}
	}
	for _, prefix := range []string{"", "jobs/", "snapshots/", "streams/job-1"} {
		want, _ := bare.List(prefix)
		got, err := rec.List(prefix)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("List(%q) = %v, %v; bare store gives %v", prefix, got, err, want)
		}
	}
	if want := []string{"jobs/job-1.json", "snapshots/job-1.snap"}; !reflect.DeepEqual(puts, want) {
		t.Errorf("onPut saw %v, want %v", puts, want)
	}

	st := rec.snapshot()
	for op, want := range map[string]opStat{
		"put":            {N: 2, Bytes: 19},
		"put jobs":       {N: 1, Bytes: 14},
		"append":         {N: 2, Bytes: 4},
		"append streams": {N: 2, Bytes: 4},
		"delete":         {N: 2},
		"get":            {N: 4, Bytes: 18},
		"list":           {N: 4},
	} {
		if got := st[op]; got.N != want.N || got.Bytes != want.Bytes {
			t.Errorf("stats[%q] = %d ops / %d B, want %d / %d", op, got.N, got.Bytes, want.N, want.Bytes)
		}
	}
	if d := rec.snapshot().minus(st); d["put"].N != 0 || d["get"].N != 0 {
		t.Errorf("minus of equal snapshots = %v", d)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
