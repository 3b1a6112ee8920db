package main

import (
	"os"
	"testing"
)

func TestParseVmHWM(t *testing.T) {
	status := []byte("Name:\tflashwalkerd\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n")
	got, err := parseVmHWM(status)
	if err != nil || got != 200 {
		t.Fatalf("parseVmHWM = %v, %v; want 200 MiB", got, err)
	}
	for _, bad := range []string{"VmRSS:\t1 kB\n", "VmHWM:\tlots kB\n", "VmHWM:\t12 MB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted malformed input", bad)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name holds spaces and a ')' to defeat naive splitting;
	// utime=250 and stime=50 ticks are fields 14 and 15.
	stat := []byte("4242 (fw d) x) S 1 4242 4242 0 -1 4194304 1000 0 0 0 250 50 0 0 20 0 7 0 100 1000000 500 18446744073709551615\n")
	got, err := parseStatCPU(stat)
	if err != nil || got != 3 {
		t.Fatalf("parseStatCPU = %v, %v; want 3 s", got, err)
	}
	if _, err := parseStatCPU([]byte("4242 (fw) S 1 2")); err == nil {
		t.Error("parseStatCPU accepted a short line")
	}
}

// The readers work on a live process: this one.
func TestProcReadersSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	rss, err := peakRSSMiB(0)
	if err != nil || rss <= 0 {
		t.Fatalf("peakRSSMiB(self) = %v, %v", rss, err)
	}
	cpu0, err := cpuSeconds(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for i := 0; i < 300_000_000; i++ {
		x += i & 3
	}
	cpu1, err := cpuSeconds(0)
	if err != nil {
		t.Fatal(err)
	}
	if cpu1 <= cpu0 {
		t.Fatalf("cpu time did not advance over a busy loop (%v -> %v, x=%d)", cpu0, cpu1, x)
	}
}
