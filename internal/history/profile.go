package history

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// profiler is the anomaly-triggered continuous-profiling half of the plane:
// on a detected regression it opens a pprof CPU profile window so the
// profile of the *slow* code is on disk before anyone has to reproduce the
// slowdown. Capture is rate-limited twice over (a per-run cap and a minimum
// gap) because an anomaly cascade must not turn the run into a permanent
// profiling session, and it is best-effort: Go allows one active CPU
// profile per process, so a run started with -cpuprofile (or a concurrent
// /debug/pprof/profile scrape) simply wins and the capture is skipped.
type profiler struct {
	dir string

	mu     sync.Mutex
	taken  int
	last   time.Time
	active bool
}

// capture starts one ProfileWindow if the rate limits allow, returning the
// path the profile will land at ("" when suppressed). The window runs on a
// background goroutine and is complete once the process's CPU profile is
// free again.
func (pr *profiler) capture(tag string) string {
	if pr == nil {
		return ""
	}
	pr.mu.Lock()
	now := time.Now()
	if pr.active || pr.taken >= ProfileLimit || (pr.taken > 0 && now.Sub(pr.last) < ProfileMinGap) {
		pr.mu.Unlock()
		return ""
	}
	pr.taken++
	pr.last = now
	pr.active = true
	pr.mu.Unlock()

	if err := os.MkdirAll(pr.dir, 0o755); err != nil {
		pr.release()
		return ""
	}
	path := filepath.Join(pr.dir, fmt.Sprintf("perf-%s.pprof", tag))
	f, err := os.Create(path)
	if err != nil {
		pr.release()
		return ""
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		// Another CPU profile is already running (-cpuprofile, a live
		// /debug/pprof/profile scrape): theirs wins, ours is skipped.
		f.Close()
		os.Remove(path)
		pr.release()
		return ""
	}
	go func() {
		time.Sleep(ProfileWindow)
		pprof.StopCPUProfile()
		f.Close()
		pr.release()
	}()
	return path
}

// release marks the capture window closed (or never opened).
func (pr *profiler) release() {
	pr.mu.Lock()
	pr.active = false
	pr.mu.Unlock()
}
