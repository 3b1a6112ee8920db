package main

import "testing"

func TestSnapKey(t *testing.T) {
	for _, c := range []struct {
		key   string
		id    string
		chain int
		ok    bool
	}{
		{"snapshots/job-7.snap", "job-7", 0, true},
		{"snapshots/job-7.d3.snap", "job-7", 3, true},
		{"snapshots/job.dx.snap", "job.dx", 0, true},
		{"jobs/job-7.json", "", 0, false},
		{"snapshots/job-7.snap.tmp", "", 0, false},
	} {
		id, chain, ok := snapKey(c.key)
		if id != c.id || chain != c.chain || ok != c.ok {
			t.Errorf("snapKey(%q) = %q, %d, %v; want %q, %d, %v", c.key, id, chain, ok, c.id, c.chain, c.ok)
		}
	}
}
