package main

// Instance metrics: per-daemon gauges and counters sampled at scrape time.
//
// The hot paths publish through the process-wide telemetry.Default()
// registry (pre-registered atomic handles, zero alloc per event); everything
// here is the opposite trade — subsystem snapshots taken lazily when
// /metrics is hit, so the subsystems keep their own counters as the single
// source of truth and the scrape pays the (cold) snapshot cost.

import (
	"sync"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/backend"
	"cyclosa/internal/core"
	"cyclosa/internal/nettrans"
	"cyclosa/internal/telemetry"
)

// viewSampler caches one membership snapshot per scrape burst so the dozen
// gossip gauges don't each take the membership lock and rebuild the peer
// list; one /metrics hit costs one Snapshot().
type viewSampler struct {
	mu      sync.Mutex
	m       *nettrans.Membership
	at      time.Time
	cached  nettrans.ViewSnapshot
	maxStal time.Duration
}

func (v *viewSampler) snap() nettrans.ViewSnapshot {
	v.mu.Lock()
	defer v.mu.Unlock()
	if now := time.Now(); v.at.IsZero() || now.Sub(v.at) > v.maxStal {
		v.cached = v.m.Snapshot()
		v.at = now
	}
	return v.cached
}

// registerNodeMetrics wires the daemon's subsystem stats into the instance
// registry as scrape-time funcs. admission, ledger and srv may be nil
// (bare-backend daemons); node, stack and membership are always present in
// node mode.
func registerNodeMetrics(r *telemetry.Registry, node *core.Node, stack *backend.Stack,
	admission *accounting.Limiter, ledger *accounting.Ledger,
	membership *nettrans.Membership, srv *nettrans.Server) {

	// The enclave's past-query table: it grows only from queries this
	// daemon relays for clients — the material their fakes are drawn from.
	r.GaugeFunc("cyclosa_core_past_query_table_len",
		"Queries in the enclave's past-query table (relayed queries, the fake-query source).",
		func() float64 { return float64(node.TableLen()) })
	// Responder sessions: each lives as long as the client connection it
	// was paired on.
	r.GaugeFunc("cyclosa_core_relay_sessions",
		"Responder sessions the relay holds, one per client paired on a live connection.",
		func() float64 { return float64(node.SessionCount()) })

	// Backend resilience layer (PR 7 counters).
	r.CounterFunc("cyclosa_backend_calls_total",
		"Search invocations before any gating.",
		func() float64 { return float64(stack.Stats().Calls) })
	r.CounterFunc("cyclosa_backend_successes_total",
		"Searches that returned engine results.",
		func() float64 { return float64(stack.Stats().Successes) })
	r.CounterFunc("cyclosa_backend_engine_errors_total",
		"Failed engine attempts (engine-returned errors).",
		func() float64 { return float64(stack.Stats().EngineErrors) })
	r.CounterFunc("cyclosa_backend_shed_total",
		"Calls rejected by the admission gate (overload shedding).",
		func() float64 { return float64(stack.Stats().Shed) })
	r.CounterFunc("cyclosa_backend_retries_total",
		"Re-submitted engine attempts.",
		func() float64 { return float64(stack.Stats().Retries) })
	r.CounterFunc("cyclosa_backend_timeouts_total",
		"Watchdog deadline expiries.",
		func() float64 { return float64(stack.Stats().Timeouts) })
	r.CounterFunc("cyclosa_backend_breaker_opens_total",
		"Circuit breaker closed-to-open transitions.",
		func() float64 { return float64(stack.Stats().BreakerOpens) })
	r.CounterFunc("cyclosa_backend_breaker_rejected_total",
		"Calls refused while the circuit was open.",
		func() float64 { return float64(stack.Stats().BreakerRejected) })
	r.CounterFunc("cyclosa_backend_breaker_open_seconds_total",
		"Cumulative time the circuit has spent open or half-open.",
		func() float64 { return float64(stack.Stats().BreakerOpenNanos) / 1e9 })
	r.GaugeFunc("cyclosa_backend_breaker_open",
		"1 while the circuit is open or half-open, 0 when closed.",
		func() float64 {
			if stack.Stats().BreakerOpen {
				return 1
			}
			return 0
		})
	r.GaugeFunc("cyclosa_backend_in_flight",
		"Engine calls currently executing.",
		func() float64 { return float64(stack.Stats().InFlight) })
	r.GaugeFunc("cyclosa_backend_retry_budget_tokens",
		"Retry-budget level; at capacity when healthy, drains toward zero "+
			"under sustained failure (early-warning signal).",
		func() float64 { return float64(stack.Stats().RetryBudgetMillitokens) / 1000 })

	// Per-client admission (PR 8 limiter).
	if admission != nil {
		r.CounterFunc("cyclosa_admission_admitted_total",
			"Client requests that consumed an admission token.",
			func() float64 { return float64(admission.Stats().Admitted) })
		r.CounterFunc("cyclosa_admission_throttled_total",
			"Client requests rejected by per-client rate limiting.",
			func() float64 { return float64(admission.Stats().Throttled) })
		r.CounterFunc("cyclosa_admission_evicted_total",
			"Client buckets recycled to honor the tracking cap.",
			func() float64 { return float64(admission.Stats().Evicted) })
		r.GaugeFunc("cyclosa_admission_clients",
			"Client buckets currently tracked.",
			func() float64 { return float64(admission.Stats().Clients) })
	}

	// Gossip-merged misbehavior ledger.
	if ledger != nil {
		r.GaugeFunc("cyclosa_misbehavior_subjects",
			"Relays with a nonzero gossip-merged misbehavior count.",
			func() float64 { return float64(len(ledger.Values())) })
	}

	// Gossip view, one cached snapshot per scrape burst.
	vs := &viewSampler{m: membership, maxStal: time.Second}
	r.CounterFunc("cyclosa_gossip_rounds_total",
		"Completed active gossip exchange rounds.",
		func() float64 { return float64(vs.snap().Rounds) })
	r.GaugeFunc("cyclosa_gossip_view_size",
		"Peers in the partial view.",
		func() float64 { return float64(len(vs.snap().Peers)) })
	r.GaugeFunc("cyclosa_gossip_view_attested",
		"Peers in the partial view with verified attestation evidence.",
		func() float64 {
			n := 0
			for _, p := range vs.snap().Peers {
				if p.Attested {
					n++
				}
			}
			return float64(n)
		})
	r.GaugeFunc("cyclosa_gossip_blacklisted",
		"Peers currently blacklisted from the view.",
		func() float64 { return float64(len(vs.snap().Blacklisted)) })
	r.GaugeFunc("cyclosa_gossip_view_max_age",
		"Age of the stalest view entry in rounds (convergence lag proxy).",
		func() float64 {
			max := 0
			for _, p := range vs.snap().Peers {
				if p.Age > max {
					max = p.Age
				}
			}
			return float64(max)
		})

	// Server write path (PR 6 group commit), instance-scoped view of the
	// same counters the process-wide nettrans metrics aggregate.
	if srv != nil {
		r.CounterFunc("cyclosa_server_write_flushes_total",
			"Group-commit flushes on the serving socket.",
			func() float64 { return float64(srv.WriteStats().Flushes) })
		r.CounterFunc("cyclosa_server_write_frames_total",
			"Frames committed on the serving socket.",
			func() float64 { return float64(srv.WriteStats().Frames) })
		r.CounterFunc("cyclosa_server_write_bytes_total",
			"Bytes flushed on the serving socket.",
			func() float64 { return float64(srv.WriteStats().Bytes) })
		r.GaugeFunc("cyclosa_server_frames_per_flush",
			"Write-combining ratio; 1.0 means no coalescing.",
			func() float64 { return srv.WriteStats().FramesPerFlush() })
	}
}
