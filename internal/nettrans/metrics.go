package nettrans

// Telemetry instruments for the frame transport. Handles are resolved at
// package init; the frame hot path (readFrame/commitFrame/flushBytes)
// adds only atomic increments, preserving its zero-allocation pin.

import (
	"cyclosa/internal/telemetry"
)

// Serve outcome names, pre-interned for zero-alloc trace records.
const (
	serveOutcomeOK          = "ok"
	serveOutcomeRejected    = "rejected"
	serveOutcomeUnavailable = "unavailable"
	serveOutcomeNoSession   = "no_session"
)

var (
	mDials = telemetry.Default().CounterVec(
		"cyclosa_nettrans_dials_total",
		"Outbound connection attempts by result.",
		"result")
	mDialOK    = mDials.With("ok")
	mDialError = mDials.With("error")

	mConnsRetired = telemetry.Default().Counter(
		"cyclosa_nettrans_conns_retired_total",
		"Pooled connections proactively retired after consecutive timeouts.")
	mReconnects = telemetry.Default().Counter(
		"cyclosa_nettrans_reconnects_total",
		"Pool redials replacing a dead or retired connection (dials after the first per peer).")

	mFramesRead = telemetry.Default().Counter(
		"cyclosa_nettrans_frames_read_total",
		"Frames read off the wire (all connection roles).")
	mReadBytes = telemetry.Default().Counter(
		"cyclosa_nettrans_read_bytes_total",
		"Bytes read off the wire, headers included.")
	mFramesWritten = telemetry.Default().Counter(
		"cyclosa_nettrans_frames_written_total",
		"Frames committed into the coalescing write queue.")
	mFlushes = telemetry.Default().Counter(
		"cyclosa_nettrans_flushes_total",
		"Group-commit batch writes to the socket; frames_written/flushes is the achieved coalescing ratio.")
	mWrittenBytes = telemetry.Default().Counter(
		"cyclosa_nettrans_written_bytes_total",
		"Bytes written to the socket, headers included.")

	mStreamsInFlight = telemetry.Default().Gauge(
		"cyclosa_nettrans_streams_in_flight",
		"Request streams awaiting a response across all pools.")

	mThrottledRecords = telemetry.Default().Counter(
		"cyclosa_nettrans_throttled_records_total",
		"Data records refused with a throttled error frame by per-client admission.")
	mSkippedRecords = telemetry.Default().Counter(
		"cyclosa_nettrans_skipped_records_total",
		"Over-quota records whose sequence number was consumed without decryption to keep the channel in sync.")

	mServeStage = telemetry.Default().HistogramVec(
		"cyclosa_nettrans_serve_stage_seconds",
		"Relay-side serve stages of one data frame: deliver (the relay's forward ecall: decrypt, record, engine, seal), write (queue the resp or err frame).",
		"stage", telemetry.DefaultLatencyBuckets)
	mServeDeliver = mServeStage.With("deliver")
	mServeWrite   = mServeStage.With("write")

	mServeQueries = telemetry.Default().CounterVec(
		"cyclosa_nettrans_serve_queries_total",
		"Data frames served by the relay, by result: ok, rejected, unavailable, no_session.",
		"result")
	mServeOK          = mServeQueries.With(serveOutcomeOK)
	mServeRejected    = mServeQueries.With(serveOutcomeRejected)
	mServeUnavailable = mServeQueries.With(serveOutcomeUnavailable)
	mServeNoSession   = mServeQueries.With(serveOutcomeNoSession)
)
