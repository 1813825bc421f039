package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"cyclosa/internal/nettrans"
	"cyclosa/internal/securechan"
)

// sessionsOpened counts sessions that sealed their first record: each
// attested pair contributes two, its client half and its relay half.
var sessionsOpened atomic.Int64

// observeSessions installs the process-wide nonce observer that feeds
// sessionsOpened. Only the traced pass pays for it.
func observeSessions() {
	securechan.SetNonceObserver(func(_ *securechan.Session, send bool, seq uint64) {
		if send && seq == 0 {
			sessionsOpened.Add(1)
		}
	})
}

// snapshot is every counter a traced pass is measured by, read at one
// instant.
type snapshot struct {
	tel            counters
	client, server nettrans.WriteStatsSnapshot
	ecalls         uint64
	backendCalls   uint64
	sessions       int64
	members        nodeStats
}

func (d *deployment) snapshot() snapshot {
	s := snapshot{tel: readCounters(), sessions: sessionsOpened.Load()}
	if d.tcp != nil {
		s.client, s.server = d.tcp.WriteStats(), d.server.WriteStats()
	}
	members, departed := d.stats()
	s.ecalls = members.ecalls + departed.ecalls
	s.backendCalls = members.backendCalls + departed.backendCalls
	s.members = members
	return s
}

// memDelta is the allocator's work over one untraced pass.
type memDelta struct {
	mallocs uint64
	pause   time.Duration
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memBetween(a, b runtime.MemStats) memDelta {
	return memDelta{mallocs: b.Mallocs - a.Mallocs, pause: time.Duration(b.PauseTotalNs - a.PauseTotalNs)}
}

// spanTotals aggregates a span tree by layer.
type spanTotals struct {
	searches                     int
	detect, rootSelf             int64
	delivers                     int
	deliverSum, wireSum, pageSum int64
	deliverDurs                  []float64
	serves, stacks, engines      int
	serveSelf, stackSelf, engine int64
}

func totals(t *spanTree) spanTotals {
	var a spanTotals
	for i, s := range t.spans {
		switch s.kind {
		case kindSearch:
			a.searches++
			a.rootSelf += t.selfTime(i)
		case kindDetect:
			a.detect += s.dur()
		case kindDeliver:
			a.delivers++
			a.deliverSum += s.dur()
			a.pageSum += int64(s.bytes)
			a.deliverDurs = append(a.deliverDurs, float64(s.dur()))
			a.wireSum += t.selfTime(i)
		case kindServe:
			a.serves++
			a.serveSelf += t.selfTime(i)
		case kindStack:
			a.stacks++
			a.stackSelf += t.selfTime(i)
		case kindEngine:
			a.engines++
			a.engine += s.dur()
		}
	}
	sort.Float64s(a.deliverDurs)
	return a
}

// per divides, reporting 0 for an empty base.
func per(x float64, n int) float64 { return div(x, float64(n)) }

func div(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

func stage(c counters, before counters, name, field string) float64 {
	return c.delta(before, `cyclosa_core_forward_stage_seconds_`+field+`{stage="`+name+`"}`)
}

// forwardCauses are the non-ok verdicts of cyclosa_core_forward_outcomes_total.
var forwardCauses = []string{"engine_error", "self_relay", "unavailable", "misbehaved", "oversize", "error"}

// perLayer computes the per-layer metrics of a traced pass. p0 is the same
// workload's untraced pass and mem its allocator figures, which carry no
// tracing cost.
func perLayer(d *deployment, pt *pass, t *spanTree, before, after snapshot, p0 *pass, mem memDelta) []metric {
	a := totals(t)
	o := pt.outcome()
	n := o.attempted
	us := func(ns float64) float64 { return ns / 1e3 }
	outcomes := func(c counters, cause string) float64 {
		return c[`cyclosa_core_forward_outcomes_total{outcome="`+cause+`"}`]
	}
	var failed float64
	fails := make(map[string]float64)
	for _, c := range forwardCauses {
		fails[c] = outcomes(after.tel, c) - outcomes(before.tel, c)
		failed += fails[c]
	}
	attempts := failed + outcomes(after.tel, "ok") - outcomes(before.tel, "ok")

	var join, leave, gossip float64
	var leaves int
	for _, ev := range pt.churn {
		join += float64(ev.join)
		gossip += float64(ev.gossip)
		if ev.leave > 0 {
			leave += float64(ev.leave)
			leaves++
		}
	}

	wire := 0.0
	if d.wl.tcp {
		wire = us(per(float64(a.wireSum), a.delivers))
	}
	frames := float64(after.client.Frames - before.client.Frames + after.server.Frames - before.server.Frames)
	flushes := float64(after.client.Flushes - before.client.Flushes + after.server.Flushes - before.server.Flushes)
	wireBytes := float64(after.client.Bytes - before.client.Bytes + after.server.Bytes - before.server.Bytes)
	dials := after.tel.delta(before.tel, `cyclosa_nettrans_dials_total{result="ok"}`) +
		after.tel.delta(before.tel, `cyclosa_nettrans_dials_total{result="error"}`)

	assess := us(per(float64(o.assess), n))
	detect := us(per(float64(a.detect), a.searches))
	self := us(per(float64(a.rootSelf), a.searches))
	traced := pt.rates(windowPeriod)

	m := []metric{
		{"sensitivity.assess_us", "us", assess, "shadow Analyzer.Assess+RecordQuery per search"},
		{"sensitivity.detect_us", "us", detect, "sensitivity.detect spans per search"},
		{"core.self_us", "us", self, "search span minus the union of its children"},
		{"core.orchestration_us", "us", max(0, self-(assess-detect)), "core.self_us less the undecorated part of the assessment"},
		{"core.forwards_per_search", "count", per(float64(a.delivers), a.searches), "conduit deliveries per search"},
		{"core.shortfall_ratio", "ratio", per(float64(o.short), o.ok()), "searches with K < Assessment.K"},
		{"core.forward_fail_ratio", "ratio", div(failed, attempts), "non-ok forward outcomes per attempt"},
	}
	for _, c := range forwardCauses {
		m = append(m, metric{"core.forward_fail_ratio." + c, "ratio", div(fails[c], attempts), "forward outcomes " + c})
	}
	m = append(m, []metric{
		{"core.retries_per_search", "count", per(after.tel.delta(before.tel, "cyclosa_core_forward_retries_total"), n), "cyclosa_core_forward_retries_total"},
		{"core.join_ms", "ms", per(join, len(pt.churn)) / 1e6, "Network.Join"},
		{"core.leave_ms", "ms", per(leave, leaves) / 1e6, "Network.Leave"},
		{"rps.gossip_round_ms", "ms", per(gossip, len(pt.churn)) / 1e6, "Network.Gossip(1)"},
		{"securechan.handshakes_per_search", "count", per(float64(after.sessions-before.sessions)/2, n), "sessions opened / 2"},
		{"securechan.encrypt_us", "us", us(1e9 * div(stage(after.tel, before.tel, "encrypt", "sum"), stage(after.tel, before.tel, "encrypt", "count"))), "forward stage histogram"},
		{"securechan.splice_us", "us", us(1e9 * div(stage(after.tel, before.tel, "splice", "sum"), stage(after.tel, before.tel, "splice", "count"))), "forward stage histogram"},
		{"transport.deliver_us", "us", us(per(float64(a.deliverSum), a.delivers)), "transport.deliver spans"},
		{"transport.deliver_p99_us", "us", us(quantile(a.deliverDurs, 0.99)), "transport.deliver spans"},
		{"nettrans.wire_us", "us", wire, "deliver minus relay.serve"},
		{"nettrans.frames_per_flush", "ratio", div(frames, flushes), "client pool and server WriteStats"},
		{"nettrans.bytes_per_forward", "bytes", per(wireBytes, a.delivers), "client pool and server WriteStats"},
		{"nettrans.dials", "count", dials, "cyclosa_nettrans_dials_total"},
		{"enclave.serve_us", "us", us(per(float64(a.serveSelf), a.serves)), "relay.serve minus backend.stack"},
		{"enclave.ecalls_per_search", "count", per(float64(after.ecalls-before.ecalls), n), "Enclave().Stats().ECalls"},
		{"enclave.epc_used_mb", "MB", per(float64(after.members.epcUsed), after.members.nodes) / (1 << 20), "EPC in use per node at the end"},
		{"searchengine.page_bytes", "bytes", per(float64(a.pageSum), a.delivers), "response record at the client conduit"},
		{"runtime.allocs_per_search", "count", per(float64(mem.mallocs), len(p0.samples)), "MemStats.Mallocs, untraced pass"},
		{"runtime.gc_pause_ms", "ms", float64(mem.pause) / 1e6, "MemStats.PauseTotalNs over the untraced pass"},
		{"backend.stack_us", "us", us(per(float64(a.stackSelf), a.stacks)), "backend.stack minus backend.engine"},
		{"backend.engine_us", "us", us(per(float64(a.engine), a.engines)), "backend.engine spans"},
		{"backend.calls_per_search", "count", per(float64(after.backendCalls-before.backendCalls), n), "Node.BackendStats().Calls"},
		{"telemetry.deliver_agreement", "ratio", div(1e9*stage(after.tel, before.tel, "deliver", "sum"), float64(a.deliverSum)), "deliver stage histogram sum / deliver span sum"},
		{"loadgen.trace_overhead", "ratio", div(traced.perSecond, p0.rates(windowPeriod).perSecond), "traced / untraced searches_per_s"},
	}...)
	return m
}

// layerChecks states, for the workload's traced pass, whether it separates
// the layers the way README.md says it does.
func layerChecks(wl workload, ms []metric) []string {
	v := make(map[string]float64, len(ms))
	for _, m := range ms {
		v[m.name] = m.value
	}
	var checks []string
	check := func(ok bool, claim string) {
		verdict := "holds"
		if !ok {
			verdict = "NOT MET"
		}
		checks = append(checks, fmt.Sprintf("layer check: %s: %s", claim, verdict))
	}
	fw := v["core.forwards_per_search"]
	switch wl.name {
	case "history-direct":
		assess := v["sensitivity.assess_us"]
		largest := assess > v["core.orchestration_us"]
		for _, perForward := range []string{"enclave.serve_us", "backend.stack_us", "backend.engine_us"} {
			largest = largest && assess > fw*v[perForward]
		}
		check(largest, "sensitivity.assess_us is the largest self time per search")
		check(v["nettrans.bytes_per_forward"] == 0 && v["nettrans.frames_per_flush"] == 0, "no nettrans work")
	case "fanout-tcp":
		wire := fw * (v["nettrans.wire_us"] + v["securechan.encrypt_us"] + v["securechan.splice_us"] + v["enclave.serve_us"])
		rest := v["sensitivity.assess_us"] + v["core.orchestration_us"] + fw*(v["backend.stack_us"]+v["backend.engine_us"])
		check(wire > rest, "transport, codec and AEAD outweigh the other layers per search")
	}
	check((v["securechan.handshakes_per_search"] > 0) == (wl.churnEvery > 0), "handshakes after warm-up only under churn")
	return checks
}
