package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// median returns the median of xs, the mean of the two middle values
// when their count is even. xs need not be sorted; it is not modified.
// An empty sample yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the run did not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// ---------------------------------------------------------------------
// Process counters.
// ---------------------------------------------------------------------

// rssSampler polls the process's resident set size while a measured
// phase runs and keeps the maximum. Sampling the phase (rather than
// reading the lifetime high-water mark) keeps input generation and the
// reference solves out of the figure.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64
}

func startRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: readRSS()}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if r := readRSS(); r > s.peak {
					s.peak = r
				}
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns the peak in bytes.
func (s *rssSampler) finish() int64 {
	close(s.stop)
	<-s.done
	if r := readRSS(); r > s.peak {
		s.peak = r
	}
	return s.peak
}

// readRSS returns the process's anonymous resident memory in bytes
// (RssAnon in /proc/self/status), or 0 where that file does not exist.
// File-backed pages are left out: the disk tier maps pool snapshots,
// and the kernel reclaims those clean pages at will.
func readRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "RssAnon:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// cpuTimes is the aggregate "cpu" line of /proc/stat.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var c cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already included in user.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c
}

// stealFrac is the share of host CPU time stolen by the hypervisor
// between two /proc/stat readings.
func stealFrac(a, b cpuTimes) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// goCounters are the runtime/metrics the traced run reports.
type goCounters struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	allocObjects    uint64
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readGo() goCounters {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goCounters{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		allocBytes:   s[2].Value.Uint64(),
		allocObjects: s[3].Value.Uint64(),
	}
}

// allocObjects reads only the heap allocation counter, for spans.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// envStamp identifies the host a run measured on, so a noisy run on a
// shared machine can be told apart afterwards.
type envStamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StealFrac  float64 `json:"host_steal_frac"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// measurement brackets a measured phase: host steal and peak RSS.
type measurement struct {
	cpu0 cpuTimes
	rss  *rssSampler
}

func startMeasure() *measurement {
	runtime.GC()
	return &measurement{cpu0: readCPUTimes(), rss: startRSS(10 * time.Millisecond)}
}

func (m *measurement) finish(o *outcome) {
	o.PeakRSS = m.rss.finish()
	o.Steal = stealFrac(m.cpu0, readCPUTimes())
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

// span is one timed call into a layer: name, interval (ns since the
// tracer started), the span that caused it, and the request it served.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span; end closes it and returns its duration.
type active struct {
	tr    *tracer
	id    int64
	s     span
	start time.Time
}

func (t *tracer) start(name string, parent, req int64) *active {
	now := time.Now()
	if t == nil {
		return &active{start: now}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &active{tr: t, id: id, start: now,
		s: span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(now.Sub(t.t0))}}
}

func (a *active) end() time.Duration {
	now := time.Now()
	d := now.Sub(a.start)
	if a.tr != nil {
		a.s.End = int64(now.Sub(a.tr.t0))
		a.tr.mu.Lock()
		a.tr.spans = append(a.tr.spans, a.s)
		a.tr.mu.Unlock()
	}
	return d
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, hi int64 = 0, s.Start
		for _, c := range iv {
			lo, end := max(c[0], hi), min(c[1], s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// spanSummary aggregates spans of one name.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	MedianS float64 `json:"median_s"`
}

func summarize(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	out := make(map[string]spanSummary)
	for _, s := range spans {
		sum := out[s.Name]
		sum.Count++
		sum.TotalS += seconds(s.dur())
		sum.SelfS += seconds(self[s.ID])
		out[s.Name] = sum
		durs[s.Name] = append(durs[s.Name], seconds(s.dur()))
	}
	for n, sum := range out {
		sum.MedianS = median(durs[n])
		out[n] = sum
	}
	return out
}

// write stores the spans and their per-name self-time summary as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(struct {
		Summary map[string]spanSummary `json:"summary"`
		Spans   []span                 `json:"spans"`
	}{summarize(t.spans), t.spans}); err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
