package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"batcher/internal/obs"
)

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the aggregate "cpu" line of /proc/stat: the steal
// ticks and the total of all ticks. ok is false where the file is
// missing or unreadable.
func hostTicks() (steal, total int64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// peakRSSMB returns the process's peak resident set in MiB, or 0 where
// /proc/self/status is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// A measured phase is split into this many equal windows, and each
// end-to-end rate, cost and median latency is the median of its
// per-window values: a stall of the shared host then moves one window's
// figure, not the run's.
const windows = 10

// meter brackets a measured phase of a fixed span. A goroutine reads
// the process's CPU time at every window boundary, and the host's steal
// share over the whole span.
type meter struct {
	t0, span int64 // obs.Now at the start, and the span in ns
	cpu      [windows + 1]time.Duration
	stealPct float64
	done     chan struct{}
}

func startMeter(span time.Duration) *meter {
	m := &meter{t0: obs.Now(), span: int64(span), done: make(chan struct{})}
	m.cpu[0] = cpuTime()
	steal0, tick0, ok0 := hostTicks()
	go func() {
		defer close(m.done)
		for i := 1; i <= windows; i++ {
			if d := m.bound(i) - obs.Now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			m.cpu[i] = cpuTime()
		}
		if s1, t1, ok := hostTicks(); ok && ok0 && t1 > tick0 {
			m.stealPct = 100 * float64(s1-steal0) / float64(t1-tick0)
		}
	}()
	return m
}

// bound returns the obs.Now stamp of window boundary i; bound(0) is the
// start and bound(windows) the end of the span.
func (m *meter) bound(i int) int64 { return m.t0 + m.span*int64(i)/windows }

// running reports whether the span has not ended yet.
func (m *meter) running() bool { return obs.Now() < m.bound(windows) }

// wait blocks until the span has ended and every boundary is read.
func (m *meter) wait() { <-m.done }

// windowed computes the end-to-end rate, cost and median latency from
// each completed operation's completion stamp and latency, as medians
// over the windows. Operations completing after the span belong to no
// window.
func (m *meter) windowed(done, lat []int64) map[string]float64 {
	lats := make([][]int64, windows)
	for i, d := range done {
		if d >= m.t0 && d < m.bound(windows) {
			w := int((d - m.t0) * windows / m.span)
			lats[w] = append(lats[w], lat[i])
		}
	}
	var rate, cost, p50 []float64
	for w, l := range lats {
		if len(l) == 0 {
			continue
		}
		rate = append(rate, float64(len(l))/(float64(m.bound(w+1)-m.bound(w))/1e9))
		cost = append(cost, float64((m.cpu[w+1]-m.cpu[w]).Nanoseconds())/1e3/float64(len(l)))
		p50 = append(p50, quantiles(l, 0.50)[0]/1e3)
	}
	return map[string]float64{
		"ops_per_s":      median(rate),
		"cpu_us_per_op":  median(cost),
		"latency_p50_us": median(p50),
	}
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantiles sorts xs in place and returns the value at each quantile q
// (the smallest sample with at least a q share of samples at or below
// it), or zeros for an empty slice.
func quantiles(xs []int64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for i, q := range qs {
		idx := max(0, min(int(math.Ceil(q*float64(len(xs))))-1, len(xs)-1))
		out[i] = float64(xs[idx])
	}
	return out
}

// mean returns the average of xs, or 0 for an empty slice.
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}
