package core

import (
	"repro/internal/compilequeue"
	"repro/internal/persist"
	"repro/internal/profile"
	"repro/internal/repo"
	"repro/internal/telemetry"
)

// RegisterTelemetry installs the library's metric collectors on a
// registry: repository, compile queue, tiering profile, and persistence
// counters, all adapted at scrape time from the same atomic Stats
// structs the JSON /metrics surface reads — recording stays exactly as
// cheap as before. Safe to call with a nil registry.
func (l *Library) RegisterTelemetry(reg *telemetry.Registry) {
	reg.RegisterFunc("library", l.collectTelemetry)
}

func (l *Library) collectTelemetry(emit func(telemetry.Sample)) {
	EmitLibrarySamples(emit, l.repo.Stats(), l.QueueStats(), l.ProfileStats(), l.PersistMetrics(), l.journal)
}

// EmitLibrarySamples renders one library's worth of stats as telemetry
// samples under the canonical majic_* names. The daemon reuses it for
// its isolated-mode aggregate (where stats are summed across private
// session libraries before emission), so both modes expose the same
// metric families.
func EmitLibrarySamples(emit func(telemetry.Sample), rs repo.Stats, qs compilequeue.Stats, ps profile.Stats, pm persist.Metrics, journal *telemetry.Journal) {
	counter := telemetry.EmitCounter
	gauge := telemetry.EmitGauge
	counter(emit, "majic_repo_lookups_total", "Repository locator lookups.", float64(rs.Lookups))
	counter(emit, "majic_repo_hits_total", "Lookups served by a safe compiled entry.", float64(rs.Hits))
	counter(emit, "majic_repo_misses_total", "Lookups that found no safe entry.", float64(rs.Misses))
	counter(emit, "majic_repo_spec_hits_total", "Hits on speculatively compiled entries.", float64(rs.SpecHits))
	counter(emit, "majic_repo_inserts_total", "Compiled entries published this lifetime.", float64(rs.Inserts))
	counter(emit, "majic_repo_invalidations_total", "Function redefinitions that dropped entries.", float64(rs.Invalidation))
	counter(emit, "majic_repo_stale_drops_total", "Async publishes dropped by a generation mismatch.", float64(rs.StaleDrops))
	counter(emit, "majic_repo_evictions_total", "Entries evicted by the per-function cap.", float64(rs.Evictions))
	counter(emit, "majic_repo_loaded_total", "Entries restored from a warm-start snapshot.", float64(rs.Loaded))
	counter(emit, "majic_repo_replicated_total", "Entries applied from cluster peers (never compiled here).", float64(rs.Replicated))
	counter(emit, "majic_repo_replicated_drops_total", "Replicated applies dropped by the duplicate or generation guard.", float64(rs.ReplicatedDrops))
	gauge(emit, "majic_repo_functions", "Functions with at least one live compiled entry.", float64(rs.Functions))
	gauge(emit, "majic_repo_entries", "Live compiled entries across all functions.", float64(rs.Entries))

	counter(emit, "majic_queue_submitted_total", "Unique compile jobs accepted by the pool.", float64(qs.Submitted))
	counter(emit, "majic_queue_deduped_total", "Requests coalesced onto an in-flight job.", float64(qs.Deduped))
	counter(emit, "majic_queue_completed_total", "Compile jobs finished.", float64(qs.Completed))
	counter(emit, "majic_queue_errors_total", "Compile jobs that returned an error.", float64(qs.Errors))
	counter(emit, "majic_queue_inline_total", "Jobs run inline after pool shutdown.", float64(qs.Inline))

	gauge(emit, "majic_profile_functions", "Functions with a tiering profile.", float64(ps.Functions))
	gauge(emit, "majic_profile_signatures", "Widened signatures being profiled.", float64(ps.Signatures))
	counter(emit, "majic_profile_entries_total", "Function-entry safepoints observed.", float64(ps.Entries))
	counter(emit, "majic_profile_back_edges_total", "Loop back-edge safepoints observed.", float64(ps.BackEdges))
	counter(emit, "majic_tier_promotions_total", "Hot signatures promoted to compiled code.", float64(ps.Promotions))
	counter(emit, "majic_osr_requests_total", "OSR continuation compiles requested.", float64(ps.OSRRequests))
	counter(emit, "majic_osr_compiles_total", "OSR continuations compiled and published.", float64(ps.OSRCompiles))
	counter(emit, "majic_osr_transfers_total", "Mid-loop transfers into compiled code.", float64(ps.OSRTransfers))
	deoptHelp := "OSR transfers rejected by a guard, by cause."
	telemetry.EmitCounterL(emit, "majic_osr_deopts_total", deoptHelp, float64(ps.OSRDeoptsGeneration),
		telemetry.Label{Key: "cause", Value: telemetry.CauseGeneration})
	telemetry.EmitCounterL(emit, "majic_osr_deopts_total", deoptHelp, float64(ps.OSRDeoptsBinding),
		telemetry.Label{Key: "cause", Value: telemetry.CauseBindingGuard})
	telemetry.EmitCounterL(emit, "majic_osr_deopts_total", deoptHelp, float64(ps.OSRDeoptsRange),
		telemetry.Label{Key: "cause", Value: telemetry.CauseRangeGuard})
	counter(emit, "majic_osr_budget_exhausted_total", "OSR sites abandoned after the deopt budget.", float64(ps.DeoptBudgetExhausted))

	enabled := 0.0
	if pm.Enabled {
		enabled = 1
	}
	gauge(emit, "majic_persist_enabled", "1 when write-behind persistence is attached.", enabled)
	if pm.Enabled {
		counter(emit, "majic_persist_notifies_total", "Repository mutations notified to the snapshotter.", float64(pm.Writer.Notifies))
		counter(emit, "majic_persist_saves_total", "Snapshots written.", float64(pm.Writer.Saves))
		counter(emit, "majic_persist_save_errors_total", "Snapshot writes that failed.", float64(pm.Writer.SaveErrors))
		gauge(emit, "majic_persist_snapshot_bytes", "Size of the last written snapshot.", float64(pm.Writer.SnapshotBytes))
		gauge(emit, "majic_persist_snapshot_entries", "Compiled entries in the last written snapshot.", float64(pm.Writer.SnapshotEntries))
		gauge(emit, "majic_persist_loaded_entries", "Entries restored by the warm start.", float64(pm.Load.LoadedEntries))
		gauge(emit, "majic_persist_rejected_entries", "Snapshot entries dropped by validation.", float64(pm.Load.RejectedEntries))
	}

	if journal != nil {
		counter(emit, "majic_journal_events_total", "Tiering events ever recorded.", float64(journal.Total()))
		gauge(emit, "majic_journal_retained", "Tiering events currently retained.", float64(journal.Len()))
	}
}
