package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// procSnap is one reading of a process's kernel accounting. CPU and
// syscall figures in the results are always differences of two snapshots
// taken at the edges of a measured phase, so start-up and warm-up are
// excluded.
type procSnap struct {
	CPUUserNs  int64 `json:"cpu_user_ns"`
	CPUSysNs   int64 `json:"cpu_sys_ns"`
	ReadCalls  int64 `json:"syscr"`
	WriteCalls int64 `json:"syscw"`
	DiskBytes  int64 `json:"write_bytes"` // bytes sent to the block layer
	CtxSwitch  int64 `json:"ctx_switches"`
	PeakRSSKB  int64 `json:"vm_hwm_kb"`
}

func (s procSnap) cpuNs() int64 { return s.CPUUserNs + s.CPUSysNs }

func (s procSnap) sub(o procSnap) procSnap {
	return procSnap{
		CPUUserNs: s.CPUUserNs - o.CPUUserNs, CPUSysNs: s.CPUSysNs - o.CPUSysNs,
		ReadCalls: s.ReadCalls - o.ReadCalls, WriteCalls: s.WriteCalls - o.WriteCalls,
		DiskBytes: s.DiskBytes - o.DiskBytes, CtxSwitch: s.CtxSwitch - o.CtxSwitch,
		PeakRSSKB: s.PeakRSSKB, // a high-water mark, not a counter
	}
}

// add sums two processes' deltas; the peak RSS of the pair is the larger.
func (s procSnap) add(o procSnap) procSnap {
	return procSnap{
		CPUUserNs: s.CPUUserNs + o.CPUUserNs, CPUSysNs: s.CPUSysNs + o.CPUSysNs,
		ReadCalls: s.ReadCalls + o.ReadCalls, WriteCalls: s.WriteCalls + o.WriteCalls,
		DiskBytes: s.DiskBytes + o.DiskBytes, CtxSwitch: s.CtxSwitch + o.CtxSwitch,
		PeakRSSKB: max(s.PeakRSSKB, o.PeakRSSKB),
	}
}

// nsPerTick converts /proc/<pid>/stat clock ticks. USER_HZ has been 100
// on every Linux architecture Go supports since 2.6.
const nsPerTick = 1e9 / 100

// readProc snapshots /proc/<pid>/{stat,io} and the per-thread status
// files (context switches are per task; the process's own status file
// only covers the main thread).
func readProc(pid int) (procSnap, error) {
	var s procSnap
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the ')'.
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return s, fmt.Errorf("procstat: malformed %s/stat", dir)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("procstat: malformed %s/stat", dir)
	}
	s.CPUUserNs, s.CPUSysNs = ut*nsPerTick, st*nsPerTick

	io, err := os.ReadFile(filepath.Join(dir, "io"))
	if err != nil {
		return s, err
	}
	s.ReadCalls = keyedInt(io, "syscr:")
	s.WriteCalls = keyedInt(io, "syscw:")
	s.DiskBytes = keyedInt(io, "write_bytes:")

	tasks, err := os.ReadDir(filepath.Join(dir, "task"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		st, err := os.ReadFile(filepath.Join(dir, "task", t.Name(), "status"))
		if err != nil {
			continue // the thread exited between ReadDir and here
		}
		s.CtxSwitch += keyedInt(st, "voluntary_ctxt_switches:") + keyedInt(st, "nonvoluntary_ctxt_switches:")
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	s.PeakRSSKB = keyedInt(status, "VmHWM:")
	return s, nil
}

// keyedInt returns the integer following key at the start of a line of a
// /proc "key: value" file, 0 when absent.
func keyedInt(data []byte, key string) int64 {
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			v, _ := strconv.ParseInt(f[0], 10, 64)
			return v
		}
	}
	return 0
}

// selfCPUNs is this process's user+system CPU time so far.
func selfCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// envBlock records where a result was measured; results from differing
// environments are not comparable.
type envBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	WorkDirFS  string `json:"work_dir_fs"`
}

func readEnv(workDir string) envBlock {
	e := envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Kernel: "unknown",
		WorkDirFS: fsType(workDir),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(rel))
	}
	return e
}

// fsType names the filesystem holding path. The durable workload measures
// fsync, which tmpfs turns into a no-op, so the type is part of the result.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x2fc12fc1:
		return "zfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
