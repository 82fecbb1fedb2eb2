package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nerve/internal/vmath"
)

// usage is a point-in-time reading of the process's resource counters,
// taken from outside the program under test: kernel rusage, the Go
// runtime's memory statistics and the plane pool's counters.
type usage struct {
	wall       time.Time
	user, sys  time.Duration
	maxRSSKB   int64
	gcCycles   uint32
	gcPause    time.Duration
	allocBytes uint64
	allocs     uint64
	planes     int64
	pool       vmath.PoolStats
}

// resetPeakRSS returns the heap's free memory to the OS and resets the
// kernel's high-water mark of the process's resident set to its current
// size (/proc/self/clear_refs), so a later peak reading covers only what
// ran after the reset — not the set-up's peak. It reports whether the
// kernel allowed the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err == nil
}

// peakRSSKB is the process's resident-set high-water mark in KiB: VmHWM
// from /proc/self/status, or rusage's lifetime maximum where that cannot
// be read.
func peakRSSKB(ru *syscall.Rusage) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64); err == nil {
					return kb
				}
			}
		}
	}
	return ru.Maxrss
}

// peakScope names what a peak RSS reading covers, given whether
// resetPeakRSS succeeded at the start of the window.
func peakScope(reset bool) string {
	if reset {
		return "timed window"
	}
	return "process lifetime: the kernel refused the reset"
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:       time.Now(),
		user:       time.Duration(ru.Utime.Nano()),
		sys:        time.Duration(ru.Stime.Nano()),
		maxRSSKB:   peakRSSKB(&ru),
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
		planes:     vmath.PlaneAllocs(),
		pool:       vmath.DefaultPool.Stats(),
	}
}

// usageDelta is what one measured window cost.
type usageDelta struct {
	wall, user, sys time.Duration
	peakRSSMB       float64
	gcCycles        int
	gcPause         time.Duration
	allocBytes      uint64
	allocs          uint64
	planes          int64
	poolHits        int64
	poolMisses      int64
}

func (u usage) since(b usage) usageDelta {
	return usageDelta{
		wall:       u.wall.Sub(b.wall),
		user:       u.user - b.user,
		sys:        u.sys - b.sys,
		peakRSSMB:  float64(u.maxRSSKB) / 1024,
		gcCycles:   int(u.gcCycles - b.gcCycles),
		gcPause:    u.gcPause - b.gcPause,
		allocBytes: u.allocBytes - b.allocBytes,
		allocs:     u.allocs - b.allocs,
		planes:     u.planes - b.planes,
		poolHits:   u.pool.Hits - b.pool.Hits,
		poolMisses: u.pool.Misses - b.pool.Misses,
	}
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuMsPer is process user+sys CPU in milliseconds per unit of work.
func (d usageDelta) cpuMsPer(n int) float64 {
	return ratio(ms(d.user+d.sys), float64(n))
}

// layerMetrics adds the vmath and Go runtime per-layer metrics for a
// window that produced n output frames.
func (d usageDelta) layerMetrics(m metrics, n int) {
	m.set("vmath.plane_allocs_per_frame", ratio(float64(d.planes), float64(n)))
	m.set("vmath.pool_hit_ratio", ratio(float64(d.poolHits), float64(d.poolHits+d.poolMisses)))
	m.set("go.gc_pause_ms", ms(d.gcPause))
	m.set("go.gc_cycles", float64(d.gcCycles))
	m.set("go.alloc_bytes_per_frame", ratio(float64(d.allocBytes), float64(n)))
	m.set("proc.user_s", d.user.Seconds())
	m.set("proc.sys_s", d.sys.Seconds())
}
