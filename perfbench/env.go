package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	rtmetrics "runtime/metrics"
)

// envHeader records what a result depends on besides the code, so that
// numbers from different machines or settings are never compared as if
// they were one series.
type envHeader struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	// StateFS is the filesystem the ledger and archive live on: fsync
	// cost, and with it verdict latency, depends on it.
	StateFS string `json:"state_fs"`
	Conns   int    `json:"conns"`
}

func newEnvHeader(root, stateDir, workload string, seed int64, seconds int, trace bool) envHeader {
	return envHeader{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
		StateFS:    fsType(stateDir),
		Conns:      fleetConns(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitOf names the code under test: the git commit when the checkout
// is a repository of its own, otherwise a digest of the Go sources and
// module files, which identifies the same code on any copy of it.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return "git:" + strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
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
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// heapSampler tracks the peak live Go heap while it runs: the largest
// heap the garbage collector found reachable at the end of a cycle.
// The heap including not-yet-collected garbage peaks wherever the
// collector's pacing happens to catch the allocation rate, which moves
// with how fast the run goes; the live heap is what the system holds.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64 // bytes, since the start or the last lap
}

const heapLive = "/gc/heap/live:bytes"

func readHeap() uint64 {
	s := []rtmetrics.Sample{{Name: heapLive}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler samples the heap every 5 ms until finished.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(readHeap())
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := readHeap()
	for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
	}
}

// lap returns the peak in MiB since the start or the last lap, and
// starts the next lap from the heap as it is now.
func (h *heapSampler) lap() float64 {
	h.observe()
	return float64(h.peak.Swap(readHeap())) / (1 << 20)
}

// finish stops the sampler and returns the peak of the last lap in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.observe()
	return float64(h.peak.Load()) / (1 << 20)
}

// gcCounters is a runtime/metrics snapshot for per-phase deltas.
type gcCounters struct {
	allocBytes, gcCycles uint64
}

func readGC() gcCounters {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return gcCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

func (a gcCounters) sub(b gcCounters) gcCounters {
	return gcCounters{allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles}
}

// cpuTime is the CPU time this process has used so far, user and system
// over all its threads. It is the clock every end-to-end time is read
// on. A shared virtual machine's wall clock runs on while the
// hypervisor has the vCPU off the host's cores, and that stolen share
// comes and goes with other guests' load for minutes at a time; a
// kernel with paravirtual steal accounting (KVM's steal clock) leaves
// it out of a process's CPU time, so work measured on this clock reads
// the same under a neighbour's load as without it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch reads the wall clock and the process CPU clock together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

// elapsed returns the wall and CPU time since the watch started.
func (s stopwatch) elapsed() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuTime() - s.cpu
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: the
// total over every state and the part stolen by the hypervisor. ok is
// false where the file is missing or malformed.
func cpuTicks() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		var v uint64
		if _, err := fmt.Sscan(s, &v); err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter measures the share of CPU time the hypervisor took from
// this machine over an interval. On a shared virtual machine that share
// rises with other guests' load, and every number of a run made under a
// high share reads slower than the code is.
type stealMeter struct {
	total, steal uint64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTicks()
	return stealMeter{t, s, ok}
}

// frac returns the stolen share since start, or false when unknown.
func (m stealMeter) frac() (float64, bool) {
	t, s, ok := cpuTicks()
	if !ok || !m.ok || t <= m.total {
		return 0, false
	}
	return float64(s-m.steal) / float64(t-m.total), true
}
