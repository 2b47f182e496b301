package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// nanotime is the runtime's monotonic clock: one clock read where
// time.Now takes two, which halves the cost of every traced span.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// cpuNs is the process's user+sys CPU time (all threads).
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// procStatusKB reads one "Vm...: N kB" field of /proc/self/status.
func procStatusKB(field string) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return n
		}
	}
	return 0
}

// resetPeakRSS resets VmHWM to the current RSS; false when the kernel
// refuses.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// settle collects garbage and returns freed pages to the OS.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// rtSample is a reading of the runtime counters a pass is charged with.
type rtSample struct {
	allocs, gcCycles, heapLive uint64
}

var rtNames = []string{"/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles", "/gc/heap/live:bytes"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) uint64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	return rtSample{allocs: v(0), gcCycles: v(1), heapLive: v(2)}
}

func gcPauseNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

// memProbeRefNs is the memory latency the speed-corrected metrics are
// scaled to: about what memProbe reads on the 2-vCPU Xeon virtual machine
// the benchmark was tuned on when its neighbours are quiet.
const memProbeRefNs = 170

// probeBuf is memProbe's buffer: 32 MB mapped outside the Go heap, so it
// changes neither GC pacing nor the heap figures.
var probeBuf []uint64

// probeSink keeps memProbe's read chain live.
var probeSink uint64

// memProbe returns the machine's memory latency at this moment: the
// median over 5 windows of 20 ms of the time per dependent random read
// from a 32 MB buffer. On a shared virtual machine other tenants'
// memory traffic changes it by tens of per cent within minutes, and the
// platform's speed moves with it.
func memProbe() float64 {
	const words = 4 << 20
	if probeBuf == nil {
		b, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(err)
		}
		probeBuf = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), words)
		for i := range probeBuf {
			probeBuf[i] = uint64(i) * 0x9e3779b97f4a7c15 // touch every page
		}
	}
	v := make([]float64, 5)
	x := uint64(7)
	for i := range v {
		start := nanotime()
		n := 0
		for nanotime()-start < 20e6 {
			for range 1000 {
				x = x*6364136223846793005 + probeBuf[(x>>32)&(words-1)]
			}
			n += 1000
		}
		v[i] = float64(nanotime()-start) / float64(n)
	}
	probeSink = x
	return median(v)
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the Go sources and module files under root,
// identifying the code revision where no git metadata is present.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
