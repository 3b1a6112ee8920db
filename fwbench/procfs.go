package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// userHZ is the kernel's USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const userHZ = 100

// peakRSSMiB reads VmHWM (the peak resident set size) of a process from
// /proc/<pid>/status; pid 0 means this process.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

func parseVmHWM(status []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: malformed %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: malformed %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("procfs: no VmHWM line")
}

// cpuSeconds reads the user+system CPU time a process has used so far
// from /proc/<pid>/stat; pid 0 means this process.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) is parenthesised and may itself hold spaces or
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: malformed stat %q", stat)
	}
	// After ')' come fields 3.. (state, ppid, ...); utime and stime are
	// fields 14 and 15, i.e. indexes 11 and 12 here.
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: short stat %q", stat)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("procfs: malformed stat times %q %q", f[11], f[12])
	}
	return float64(ut+st) / userHZ, nil
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return "/proc/" + strconv.Itoa(pid) + "/" + file
}
