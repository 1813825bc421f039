package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/searchengine"
)

// churnLive is how many joined relay-only nodes churn keeps in the network
// at once; each churn event joins one and, past this many, the oldest
// leaves.
const churnLive = 4

// sample is one search as the load generator saw it.
type sample struct {
	end       time.Duration // since the pass started
	lat       time.Duration // wall time of Node.Search
	k         int           // fakes sent (SearchResult.K)
	assessedK int           // fakes the assessment asked for
	failed    bool          // error after every re-issue, wrong page or self relay
	wrong     bool          // returned, but with a wrong page or self relay
	reissued  int           // times the search was issued again after an error
	// Traced only: the shadow analyzer's Assess+RecordQuery time, and
	// whether its k differs from the real assessment's, which would mean
	// the shadow history has drifted.
	assess   time.Duration
	mismatch bool
}

// cpuMark is the process CPU time and the machine's steal ticks at one
// instant of a pass.
type cpuMark struct {
	at    time.Duration
	cpu   time.Duration
	steal int64
}

// churnEvent times the three calls of one churn event.
type churnEvent struct {
	join, gossip, leave time.Duration
}

// pass is one closed-loop run over a deployment.
type pass struct {
	elapsed time.Duration
	steal   int64 // machine steal ticks over the pass
	samples []sample
	cpu     []cpuMark
	churn   []churnEvent
	// churnErr is the first Join failure (a correctness failure: the
	// network refused a fresh id).
	churnErr error
}

// stealTicks reads the machine's steal time (USER_HZ ticks) from
// /proc/stat: time the hypervisor ran something else while a vCPU of this
// machine wanted to run. It is reported beside the metrics because it
// moves them.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reissues is how many times the load generator re-issues a search that
// returned an error, as the extension does for its user: under churn all
// of a forward's retries can land on relays that have left. A search that
// still fails after them counts as failed.
const reissues = 3

// settle drives the closed loop untimed until every user has issued
// wl.historyCap searches, so each linkability history holds only queries
// of the run and every relay's past-query table is in its steady state
// before anything is measured. Its searches are checked like a pass's.
// Nothing of it is timed, so it runs a client per processor.
func (d *deployment) settle() *pass {
	return d.loop(runtime.GOMAXPROCS(0), func(_ time.Duration, issued int) bool { return issued >= d.wl.historyCap }, 0)
}

// passClients is the number of client goroutines of a measured pass. One
// search already runs its k+1 forwards at once, and the relays' side runs
// beside them; with a client per processor the loop kept every processor
// busy, and its figures moved with whatever else the host ran.
const passClients = 1

// run drives Node.Search in a closed loop for dur, sampling CPU time every
// window.
func (d *deployment) run(dur, window time.Duration) *pass {
	return d.loop(passClients, func(elapsed time.Duration, _ int) bool { return elapsed >= dur }, window)
}

// loop is the closed loop. Client g owns users g, g+clients, ...; it
// issues their searches round-robin, each user's in stream order from
// where the previous loop left it, and a search starts only when the
// client's previous one returned. A user's searches therefore stay in
// order whatever the number of clients. A client stops when done(elapsed,
// searches per user so far) holds. With window > 0 the process CPU time
// and the machine's steal time are sampled every window.
func (d *deployment) loop(clients int, done func(elapsed time.Duration, issued int) bool, window time.Duration) *pass {
	p := &pass{}
	results := make([][]sample, clients)
	churns := make([][]churnEvent, clients)
	churnErrs := make([]error, clients)

	steal0 := stealTicks()
	start := time.Now()
	stop := make(chan struct{})
	sampled := make(chan []cpuMark, 1)
	if window > 0 {
		go func() {
			marks := []cpuMark{{0, processCPU(), stealTicks()}}
			t := time.NewTicker(window)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					marks = append(marks, cpuMark{time.Since(start), processCPU(), stealTicks()})
				case <-stop:
					sampled <- append(marks, cpuMark{time.Since(start), processCPU(), stealTicks()})
					return
				}
			}
		}()
	} else {
		sampled <- nil
	}

	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 0
			for round := 0; !done(time.Since(start), round); round++ {
				for u := g; u < numNodes && !done(time.Since(start), round); u += clients {
					stream := d.in.streams[u]
					q := stream[d.pos[u]%len(stream)]
					d.pos[u]++
					results[g] = append(results[g], d.search(u, q, start))
					n++
					if d.wl.churnEvery > 0 && n%d.wl.churnEvery == 0 {
						ev, err := d.churn()
						if err != nil && churnErrs[g] == nil {
							churnErrs[g] = err
						}
						churns[g] = append(churns[g], ev)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.steal = stealTicks() - steal0
	close(stop)
	p.cpu = <-sampled
	for g := range results {
		p.samples = append(p.samples, results[g]...)
		p.churn = append(p.churn, churns[g]...)
		if p.churnErr == nil {
			p.churnErr = churnErrs[g]
		}
	}
	return p
}

// wrapped reports how many users have issued their whole stream and
// started over: their later searches repeat queries.
func (d *deployment) wrapped() int {
	n := 0
	for u, issued := range d.pos {
		if issued > len(d.in.streams[u]) {
			n++
		}
	}
	return n
}

// search issues one search for user u, re-issuing it on an error, and
// checks its output. The sample's latency is the user's wait over every
// attempt.
func (d *deployment) search(u int, q string, passStart time.Time) sample {
	var s sample
	node := d.net.Node(d.users[u])
	var res *core.SearchResult
	var err error
	for attempt := 0; attempt <= reissues; attempt++ {
		if attempt > 0 {
			s.reissued++
		}
		now := searchBase.Add(time.Duration(d.seq.Add(1)))
		id := now.UnixNano()
		shadowK := -1
		var startNS int64
		if d.tr != nil {
			d.current[u] = id
			t0 := time.Now()
			a := d.shadows[u].Assess(q)
			d.shadows[u].RecordQuery(q)
			s.assess += time.Since(t0)
			shadowK = a.K
			startNS = d.tr.clock()
		}
		t0 := time.Now()
		res, err = node.Search(q, now)
		s.lat += time.Since(t0)
		if d.tr != nil {
			d.tr.add(span{id: id, kind: kindSearch, key: d.users[u], start: startNS, end: d.tr.clock()})
		}
		if err == nil {
			s.mismatch = shadowK >= 0 && shadowK != res.Assessment.K
			break
		}
	}
	s.end = time.Since(passStart)
	if err != nil {
		s.failed = true
		return s
	}
	s.k, s.assessedK = res.K, res.Assessment.K
	if res.RealRelay == node.ID() || !samePage(res.Results, d.engine.expected(q)) {
		s.failed, s.wrong = true, true
	}
	return s
}

// churn joins a relay-only node, runs one gossip round and, once more than
// churnLive joined nodes are up, makes the oldest leave.
func (d *deployment) churn() (churnEvent, error) {
	var ev churnEvent
	d.mu.Lock()
	d.churnSeq++
	id := fmt.Sprintf("churn%05d", d.churnSeq)
	d.mu.Unlock()

	t0 := time.Now()
	_, err := d.net.Join(id)
	ev.join = time.Since(t0)
	if err != nil {
		return ev, fmt.Errorf("join %s: %w", id, err)
	}
	d.mu.Lock()
	d.live = append(d.live, id)
	leave := ""
	if len(d.live) > churnLive {
		leave, d.live = d.live[0], d.live[1:]
	}
	d.mu.Unlock()

	t0 = time.Now()
	d.net.Gossip(1)
	ev.gossip = time.Since(t0)
	if leave != "" {
		node := d.net.Node(leave)
		t0 = time.Now()
		d.net.Leave(leave)
		ev.leave = time.Since(t0)
		d.mu.Lock()
		d.departed.add(node)
		d.mu.Unlock()
	}
	return ev, nil
}

// samePage reports whether a returned page equals the expected one field
// by field.
func samePage(got, want []searchengine.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.DocID != w.DocID || g.URL != w.URL || g.Title != w.Title || g.Score != w.Score || len(g.Terms) != len(w.Terms) {
			return false
		}
		for j := range g.Terms {
			if g.Terms[j] != w.Terms[j] {
				return false
			}
		}
	}
	return true
}
