package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"cyclosa/internal/telemetry"
)

// metric is one named, unit-carrying number of the report.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // how it was taken; printed in the report only
}

// window is one slice of a pass between two CPU samples.
type window struct {
	from, to time.Duration
	cpu      time.Duration
	steal    int64           // machine steal ticks
	lats     []time.Duration // every search that ended in the window
	done     int             // searches that ended in it without failing
}

// windows splits a pass at its CPU samples, dropping a trailing slice
// shorter than half the sampling period.
func (p *pass) windows(period time.Duration) []window {
	var ws []window
	for i := 1; i < len(p.cpu); i++ {
		a, b := p.cpu[i-1], p.cpu[i]
		ws = append(ws, window{from: a.at, to: b.at, cpu: b.cpu - a.cpu, steal: b.steal - a.steal})
	}
	for _, s := range p.samples {
		i := sort.Search(len(ws), func(i int) bool { return ws[i].to > s.end })
		if i == len(ws) {
			i = len(ws) - 1
		}
		ws[i].lats = append(ws[i].lats, s.lat)
		if !s.failed {
			ws[i].done++
		}
	}
	if n := len(ws); n > 1 && ws[n-1].to-ws[n-1].from < period/2 {
		// Fold the short tail into the window before it.
		ws[n-2].to, ws[n-2].cpu, ws[n-2].steal = ws[n-1].to, ws[n-2].cpu+ws[n-1].cpu, ws[n-2].steal+ws[n-1].steal
		ws[n-2].lats = append(ws[n-2].lats, ws[n-1].lats...)
		ws[n-2].done += ws[n-1].done
		ws = ws[:n-1]
	}
	return ws
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// calm returns the windows in which the machine's steal counter did not
// advance: the hypervisor ran nothing else while a vCPU of this machine
// wanted to run. In the others the figures measure the neighbours too; on
// the reference machine a window with a single steal tick already had a
// 10% higher p99. When fewer than half the windows are calm, calm returns
// the least-stolen half.
func calm(ws []window) []window {
	var kept []window
	for _, w := range ws {
		if w.steal == 0 {
			kept = append(kept, w)
		}
	}
	if 2*len(kept) >= len(ws) {
		return kept
	}
	kept = append(kept[:0], ws...)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].steal < kept[j].steal })
	return kept[:(len(kept)+1)/2]
}

// passRates is what the closed loop delivered, as medians over the calm
// windows.
type passRates struct {
	perSecond, p50ms, p99ms, cpuMS  float64
	windows, calm, minWindowSamples int
}

func (p *pass) rates(period time.Duration) passRates {
	all := p.windows(period)
	ws := calm(all)
	var tput, p50, p99, cpu []float64
	r := passRates{windows: len(all), calm: len(ws), minWindowSamples: -1}
	for _, w := range ws {
		secs := (w.to - w.from).Seconds()
		tput = append(tput, float64(w.done)/secs)
		lat := make([]float64, len(w.lats))
		for i, l := range w.lats {
			lat[i] = float64(l) / 1e6
		}
		sort.Float64s(lat)
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		if w.done > 0 {
			cpu = append(cpu, float64(w.cpu)/1e6/float64(w.done))
		}
		if r.minWindowSamples < 0 || len(w.lats) < r.minWindowSamples {
			r.minWindowSamples = len(w.lats)
		}
	}
	r.perSecond, r.p50ms, r.p99ms, r.cpuMS = median(tput), median(p50), median(p99), median(cpu)
	return r
}

// outcome counts a pass's searches.
type outcome struct {
	attempted, failed, wrong, short int
	reissued                        int // searches issued more than once
	firstOK                         int // correct at the first attempt
	fakes                           int // fakes sent over searches that did not fail
	assess                          time.Duration
	mismatches                      int
}

func (p *pass) outcome() outcome {
	var o outcome
	for _, s := range p.samples {
		o.attempted++
		o.assess += s.assess
		if s.mismatch {
			o.mismatches++
		}
		if s.reissued > 0 {
			o.reissued++
		}
		switch {
		case s.failed:
			o.failed++
			if s.wrong {
				o.wrong++
			}
		default:
			if s.reissued == 0 {
				o.firstOK++
			}
			o.fakes += s.k
			if s.k < s.assessedK {
				o.short++
			}
		}
	}
	return o
}

func (o outcome) ok() int { return o.attempted - o.failed }

// stealShare is the pass's machine steal time as a percentage of the
// machine's CPU time (USER_HZ is 100 on Linux).
func (p *pass) stealShare() float64 {
	return 100 * div(float64(p.steal)/100, p.elapsed.Seconds()*float64(runtime.NumCPU()))
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// endToEnd computes the user-visible metrics of an untraced pass.
func endToEnd(p *pass, period time.Duration, setups []float64) []metric {
	r := p.rates(period)
	o := p.outcome()
	n := strconv.Itoa(o.attempted) + " searches, " + strconv.Itoa(r.calm) + " of " + strconv.Itoa(r.windows) + " windows calm, >= " + strconv.Itoa(r.minWindowSamples) + " samples each"
	fakes := 0.0
	if o.ok() > 0 {
		fakes = float64(o.fakes) / float64(o.ok())
	}
	return []metric{
		{"searches_per_s", "1/s", r.perSecond, "median over windows; " + n},
		{"search_p50_ms", "ms", r.p50ms, "median over windows of the window p50; " + n},
		{"search_p99_ms", "ms", r.p99ms, "median over windows of the window p99; " + n},
		{"cpu_ms_per_search", "ms", r.cpuMS, "getrusage user+sys per completed search, median over windows"},
		{"fakes_per_search", "count", fakes, "mean SearchResult.K over " + strconv.Itoa(o.ok()) + " completed searches"},
		{"success_ratio", "ratio", per(float64(o.firstOK), o.attempted), "searches answered correctly at the first attempt / searches"},
		{"rss_peak_mb", "MB", rssPeakMB(), "VmHWM"},
		{"setup_s", "s", median(setups), "median of " + strconv.Itoa(len(setups)) + " set-ups"},
	}
}

// counters is a parsed telemetry exposition: series text -> value.
type counters map[string]float64

func readCounters() counters {
	c := make(counters)
	for _, line := range bytes.Split(telemetry.Default().AppendText(nil), []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err == nil {
			c[string(line[:i])] = v
		}
	}
	return c
}

// delta returns after-before of one series.
func (c counters) delta(before counters, series string) float64 { return c[series] - before[series] }

// speedProbe times a fixed piece of CPU work (SHA-256 over 32 MiB) just
// before the measured pass: a stamp of the machine's compute speed beside
// steal time.
func speedProbe() time.Duration {
	buf := make([]byte, 1<<20)
	start := time.Now()
	for i := 0; i < 32; i++ {
		sum := sha256.Sum256(buf)
		buf[i] = sum[0]
	}
	return time.Since(start)
}

// env describes where a result was measured.
func env(seed int64, samples string, probe time.Duration) string {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			rev += "+dirty"
		}
	}
	return strings.Join([]string{
		"cpu=" + strconv.Quote(model),
		"nproc=" + strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs=" + strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		"rev=" + rev,
		"seed=" + strconv.FormatInt(seed, 10),
		"samples=" + strconv.Quote(samples),
		"probe_ms=" + strconv.FormatFloat(float64(probe)/1e6, 'f', 2, 64),
	}, " ")
}
