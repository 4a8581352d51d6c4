//! The `GET /metrics` Prometheus exposition.
//!
//! Renders every counter `/stats` reports — executor, caches, ingest,
//! sessions — plus the `yask_obs` latency histograms into one text
//! document (exposition format 0.0.4). Metric names are `yask_`-prefixed;
//! per-shard series carry a `shard` label, per-module why-not series a
//! `module` label, and durations are exported in seconds per Prometheus
//! convention. The same `yask_obs::validate_exposition` parser that
//! checks this output in the unit tests also runs in the CI smoke step,
//! so "well-formed" means the same thing everywhere.

use yask_exec::{AdmissionSnapshot, ExecSnapshot, RouteWindows};
use yask_ingest::{CheckpointStats, IngestHistSnapshots, WalStats};
use yask_obs::prom::{LabelledHistogram, LabelledValue, PromText};
use yask_pager::PoolStats;

/// Everything one `/metrics` render needs, gathered by the service under
/// its own accessors so this module stays a pure formatter.
pub(crate) struct MetricsInputs<'a> {
    pub exec: &'a ExecSnapshot,
    pub admission: &'a AdmissionSnapshot,
    pub ingest_hists: &'a IngestHistSnapshots,
    pub wal: Option<WalStats>,
    pub ckpt: &'a CheckpointStats,
    pub corpus_chunks_copied: u64,
    pub corpus_copy_bytes: u64,
    pub coalesce_groups: u64,
    pub coalesce_batches: u64,
    pub sessions_live: usize,
    pub sessions_pinned: usize,
    pub traces_recorded: u64,
    pub uptime_seconds: f64,
}

fn shard_label(i: usize) -> Vec<(&'static str, String)> {
    vec![("shard", i.to_string())]
}

/// Per-shard series from one `u64` accessor.
fn shard_series(exec: &ExecSnapshot, f: impl Fn(usize) -> f64) -> Vec<LabelledValue<'static>> {
    (0..exec.per_shard.len())
        .map(|i| (shard_label(i), f(i)))
        .collect()
}

/// Renders the whole exposition document.
pub(crate) fn render_metrics(m: &MetricsInputs) -> String {
    let e = m.exec;
    let mut p = PromText::new();

    // -- query path ------------------------------------------------------
    p.counter("yask_queries_total", "Top-k queries computed (cache hits excluded)", e.queries);
    p.counter(
        "yask_scatter_queries_total",
        "Queries computed by scatter-gather across shards",
        e.scatter_queries,
    );
    p.counter(
        "yask_scan_fallback_queries_total",
        "Queries answered by the exact scan after a shard reply went missing",
        e.scan_fallback_queries,
    );
    p.gauge("yask_shards", "Configured shard count", e.shards as f64);
    p.gauge("yask_workers", "Scatter pool worker threads", e.workers as f64);
    p.gauge(
        "yask_queue_depth",
        "Pool jobs submitted but not yet started",
        e.queue_depth as f64,
    );
    p.gauge(
        "yask_queue_depth_max",
        "Highest queue depth any submit ever observed",
        e.queue_depth_max as f64,
    );
    p.gauge(
        "yask_queue_depth_max_1m",
        "Highest queue depth any submit observed in the last minute",
        e.queue_depth_max_1m as f64,
    );
    p.counter(
        "yask_queue_saturated_total",
        "Submits that ran inline because the bounded pool queue was full",
        e.queue_saturated as u64,
    );

    // -- admission / load shedding ---------------------------------------
    let shed_series: Vec<LabelledValue> = m
        .admission
        .shed
        .iter()
        .map(|c| {
            (
                vec![("route", c.route.to_string()), ("reason", c.reason.to_string())],
                c.count as f64,
            )
        })
        .collect();
    p.counter_family(
        "yask_shed_total",
        "Requests refused by admission control, by route and reason",
        &shed_series,
    );
    p.counter(
        "yask_deadline_exceeded_total",
        "Requests whose deadline budget expired (504s)",
        m.admission.deadline_exceeded,
    );
    p.counter(
        "yask_degraded_answers_total",
        "Responses served degraded (stale cache hit or truncated search)",
        m.admission.degraded_answers,
    );
    p.counter(
        "yask_degraded_admits_total",
        "Requests admitted at the degraded deadline budget",
        m.admission.degraded_admits,
    );

    // -- caches ----------------------------------------------------------
    let caches = [("topk", &e.topk_cache), ("answer", &e.answer_cache)];
    let cache_series = |f: &dyn Fn(&yask_exec::CacheSnapshot) -> f64| -> Vec<LabelledValue<'static>> {
        caches
            .iter()
            .map(|(name, c)| (vec![("cache", (*name).to_string())], f(c)))
            .collect()
    };
    p.counter_family(
        "yask_cache_hits_total",
        "Answer cache hits by cache",
        &cache_series(&|c| c.hits as f64),
    );
    p.counter_family(
        "yask_cache_misses_total",
        "Answer cache misses by cache",
        &cache_series(&|c| c.misses as f64),
    );
    p.counter_family(
        "yask_cache_insertions_total",
        "Answer cache insertions by cache",
        &cache_series(&|c| c.insertions as f64),
    );
    p.counter_family(
        "yask_cache_evictions_total",
        "Answer cache evictions by cache",
        &cache_series(&|c| c.evictions as f64),
    );
    p.gauge_family(
        "yask_cache_entries",
        "Live answer cache entries by cache",
        &cache_series(&|c| c.len as f64),
    );

    // -- corpus / epochs -------------------------------------------------
    p.gauge("yask_epoch", "Published corpus epoch", e.epoch as f64);
    p.gauge("yask_live_objects", "Live objects in the current epoch", e.live_objects as f64);
    p.gauge("yask_tombstones", "Tombstoned slots in the current epoch", e.tombstones as f64);

    // -- write path ------------------------------------------------------
    p.counter("yask_write_batches_total", "Write batches applied", e.batches);
    p.counter("yask_inserts_total", "Objects inserted across all batches", e.inserts);
    p.counter("yask_deletes_total", "Objects deleted across all batches", e.deletes);
    p.counter("yask_rebalances_total", "Skew-triggered shard re-splits", e.rebalances);
    p.counter(
        "yask_index_chunks_copied_total",
        "Arena chunks copied by path-copying tree updates",
        e.index_chunks_copied,
    );
    p.counter(
        "yask_index_chunks_created_total",
        "Arena chunks freshly created by tree updates",
        e.index_chunks_created,
    );
    p.counter(
        "yask_index_copy_bytes_total",
        "Bytes deep-copied by path-copying tree updates",
        e.index_copy_bytes,
    );
    p.counter(
        "yask_corpus_chunks_copied_total",
        "Corpus chunks copied deriving new epochs",
        m.corpus_chunks_copied,
    );
    p.counter(
        "yask_corpus_copy_bytes_total",
        "Corpus bytes copied deriving new epochs",
        m.corpus_copy_bytes,
    );
    p.gauge("yask_index_nodes", "Reachable tree nodes across all shards", e.index_nodes as f64);
    p.gauge("yask_index_bytes", "Estimated index bytes across all shards", e.index_bytes as f64);

    // -- WAL / checkpoints (gauges: the log truncates at checkpoints) ----
    p.gauge("yask_wal_durable", "1 when a write-ahead log is configured", m.wal.is_some() as u8 as f64);
    let wal = m.wal.unwrap_or_default();
    p.gauge("yask_wal_batches", "Committed batches in the log since its base", wal.batches as f64);
    p.gauge("yask_wal_bytes", "Committed payload bytes in the log", wal.bytes as f64);
    p.gauge("yask_wal_groups", "Commit groups flushed since the log base", wal.groups as f64);
    p.gauge("yask_wal_base_epoch", "Epoch the log's records apply on top of", wal.base_epoch as f64);
    p.counter("yask_checkpoints_total", "Checkpoint snapshots taken", m.ckpt.checkpoints);
    p.gauge(
        "yask_checkpoint_epoch",
        "Epoch of the most recent checkpoint",
        m.ckpt.last_epoch as f64,
    );
    // -- buffer pools / out-of-core pager --------------------------------
    // One family per counter, one series per pool: the out-of-core shard
    // pager (zero-valued while every tree is resident), the WAL's live
    // pool, and the cumulative counters of every checkpoint file touched.
    // All three are monotonic for the life of the process.
    let pg = e.pager.unwrap_or_default();
    let shard_pool = PoolStats {
        hits: pg.pool_hits,
        misses: pg.pool_misses,
        evictions: pg.pool_evictions,
    };
    let pools: [(&str, PoolStats); 3] =
        [("shard", shard_pool), ("wal", wal.pool), ("checkpoint", m.ckpt.pool)];
    let pool_series = |f: &dyn Fn(&PoolStats) -> u64| -> Vec<LabelledValue<'static>> {
        pools
            .iter()
            .map(|(name, s)| (vec![("pool", (*name).to_string())], f(s) as f64))
            .collect()
    };
    p.counter_family(
        "yask_pager_hits_total",
        "Buffer-pool page reads served from cache, by pool",
        &pool_series(&|s| s.hits),
    );
    p.counter_family(
        "yask_pager_misses_total",
        "Buffer-pool page reads that went to disk, by pool",
        &pool_series(&|s| s.misses),
    );
    p.counter_family(
        "yask_pager_evictions_total",
        "Buffer-pool frames evicted to make room, by pool",
        &pool_series(&|s| s.evictions),
    );
    // Decoded-chunk (node-arena) counters of the shard pager. These
    // aggregate the *live* paged trees — a re-paged shard starts fresh —
    // so they are gauges, not counters.
    p.gauge(
        "yask_paged_trees",
        "Shard trees currently served out-of-core",
        pg.paged_trees as f64,
    );
    p.gauge(
        "yask_paged_budget_bytes",
        "Decoded-chunk resident budget per paged tree",
        pg.budget_bytes as f64,
    );
    p.gauge(
        "yask_paged_chunks",
        "Node chunks across all paged trees",
        pg.chunk_count as f64,
    );
    p.gauge(
        "yask_paged_chunks_resident",
        "Node chunks currently decoded in memory across paged trees",
        pg.resident_chunks as f64,
    );
    p.gauge(
        "yask_paged_chunk_hits",
        "Node-chunk reads served from the decoded cache (live paged trees)",
        pg.chunk_hits as f64,
    );
    p.gauge(
        "yask_paged_chunk_misses",
        "Node-chunk faults decoded through the pager (live paged trees)",
        pg.chunk_misses as f64,
    );
    p.gauge(
        "yask_paged_chunk_evictions",
        "Decoded node chunks evicted under the resident budget (live paged trees)",
        pg.chunk_evictions as f64,
    );
    p.counter(
        "yask_coalesce_groups_total",
        "Write groups flushed by the request coalescer",
        m.coalesce_groups,
    );
    p.counter(
        "yask_coalesce_batches_total",
        "Write batches admitted through the request coalescer",
        m.coalesce_batches,
    );

    // -- build / uptime --------------------------------------------------
    p.gauge_family(
        "yask_build_info",
        "Build metadata carried as labels; the value is always 1",
        &[(vec![("version", env!("CARGO_PKG_VERSION").to_string())], 1.0)],
    );
    p.gauge(
        "yask_uptime_seconds",
        "Seconds since the service started (monotonic clock)",
        m.uptime_seconds,
    );

    // -- workload observatory --------------------------------------------
    // Windowed rates and quantiles per route at the 1 s / 10 s / 1 m
    // horizons, plus per-STR-cell heat. With the observatory disabled the
    // families render header-only (valid exposition) rather than
    // flapping out of existence.
    let mut route_rate: Vec<LabelledValue> = Vec::new();
    let mut route_p50: Vec<LabelledValue> = Vec::new();
    let mut route_p99: Vec<LabelledValue> = Vec::new();
    let mut cell_query_heat: Vec<LabelledValue> = Vec::new();
    let mut cell_write_heat: Vec<LabelledValue> = Vec::new();
    let mut cell_query_touches: Vec<LabelledValue> = Vec::new();
    let mut cell_write_touches: Vec<LabelledValue> = Vec::new();
    let (mut query_skew, mut write_skew) = (0.0, 0.0);
    if let Some(w) = &e.workload {
        let mut push_route = |route: &str, rw: &RouteWindows| {
            for (window, snap) in rw.iter_named() {
                let labels = vec![("route", route.to_string()), ("window", window.to_string())];
                route_rate.push((labels.clone(), snap.rate_per_sec()));
                route_p50.push((labels.clone(), snap.p50() as f64 / 1e9));
                route_p99.push((labels, snap.p99() as f64 / 1e9));
            }
        };
        push_route("topk", &w.topk);
        push_route("topk_hit", &w.topk_hit);
        for (module, rw) in w.whynot_named() {
            push_route(&format!("whynot_{module}"), rw);
        }
        push_route("writes", &w.writes);
        let cell_label = |i: usize| vec![("cell", i.to_string())];
        for (i, &h) in w.query_heat.iter().enumerate() {
            cell_query_heat.push((cell_label(i), h));
        }
        for (i, &h) in w.write_heat.iter().enumerate() {
            cell_write_heat.push((cell_label(i), h));
        }
        for (i, &t) in w.query_touches.iter().enumerate() {
            cell_query_touches.push((cell_label(i), t as f64));
        }
        for (i, &t) in w.write_touches.iter().enumerate() {
            cell_write_touches.push((cell_label(i), t as f64));
        }
        query_skew = w.query_skew;
        write_skew = w.write_skew;
    }
    p.gauge_family(
        "yask_route_rate",
        "Windowed request rate per route (events per second)",
        &route_rate,
    );
    p.gauge_family(
        "yask_route_p50_seconds",
        "Windowed median latency per route",
        &route_p50,
    );
    p.gauge_family(
        "yask_route_p99_seconds",
        "Windowed p99 latency per route",
        &route_p99,
    );
    p.gauge_family(
        "yask_cell_query_heat",
        "Exponentially decayed query touches per STR cell",
        &cell_query_heat,
    );
    p.gauge_family(
        "yask_cell_write_heat",
        "Exponentially decayed write ops per STR cell",
        &cell_write_heat,
    );
    p.counter_family(
        "yask_cell_query_touches_total",
        "Query touches routed per STR cell since startup",
        &cell_query_touches,
    );
    p.counter_family(
        "yask_cell_write_touches_total",
        "Write ops routed per STR cell since startup",
        &cell_write_touches,
    );
    p.gauge(
        "yask_query_heat_skew",
        "Query heat skew: hottest cell over mean cell (0 when cold)",
        query_skew,
    );
    p.gauge(
        "yask_write_heat_skew",
        "Write heat skew: hottest cell over mean cell (0 when cold)",
        write_skew,
    );

    // -- sessions / traces ----------------------------------------------
    p.gauge("yask_sessions_live", "Live why-not sessions", m.sessions_live as f64);
    p.gauge(
        "yask_sessions_pinned_epochs",
        "Sessions still answering against a superseded epoch",
        m.sessions_pinned as f64,
    );
    p.counter("yask_traces_recorded_total", "Query traces recorded into the ring", m.traces_recorded);

    // -- per-shard counters ---------------------------------------------
    // Families render unconditionally: with zero shards (synthetic empty
    // snapshots) they emit header-only — valid exposition since the
    // parser relaxation — so a scraper never sees a family flap in and
    // out of existence as the topology changes.
    p.counter_family(
        "yask_shard_queries_total",
        "Searches run per shard",
        &shard_series(e, |i| e.per_shard[i].queries as f64),
    );
    p.counter_family(
        "yask_shard_nodes_expanded_total",
        "Tree nodes expanded per shard",
        &shard_series(e, |i| e.per_shard[i].nodes_expanded as f64),
    );
    p.counter_family(
        "yask_shard_objects_scored_total",
        "Objects exactly scored per shard",
        &shard_series(e, |i| e.per_shard[i].objects_scored as f64),
    );
    p.counter_family(
        "yask_shard_inserts_total",
        "Inserts routed per shard",
        &shard_series(e, |i| e.per_shard[i].inserts as f64),
    );
    p.counter_family(
        "yask_shard_deletes_total",
        "Deletes routed per shard",
        &shard_series(e, |i| e.per_shard[i].deletes as f64),
    );
    p.gauge_family(
        "yask_shard_objects",
        "Objects indexed per shard",
        &shard_series(e, |i| e.per_shard[i].objects as f64),
    );
    p.gauge_family(
        "yask_shard_index_bytes",
        "Estimated index bytes per shard",
        &shard_series(e, |i| e.per_shard[i].index_bytes as f64),
    );

    // -- latency histograms ---------------------------------------------
    p.histogram(
        "yask_topk_latency_seconds",
        "Uncached top-k compute latency",
        &e.topk_hist,
    );
    p.histogram(
        "yask_topk_cache_hit_latency_seconds",
        "Top-k cache hit latency",
        &e.topk_hit_hist,
    );
    let shard_hists: Vec<LabelledHistogram> = e
        .shard_search_hists
        .iter()
        .enumerate()
        .map(|(i, h)| (shard_label(i), h.clone()))
        .collect();
    p.histogram_family(
        "yask_shard_search_latency_seconds",
        "Per-shard search latency",
        &shard_hists,
    );
    let whynot_hists: Vec<LabelledHistogram> = e
        .whynot_hists
        .iter_named()
        .iter()
        .map(|(name, h)| (vec![("module", (*name).to_string())], (*h).clone()))
        .collect();
    p.histogram_family(
        "yask_whynot_latency_seconds",
        "Why-not answering latency by module",
        &whynot_hists,
    );
    p.histogram(
        "yask_wal_append_latency_seconds",
        "Durable WAL commit latency (encode + write + both fsyncs)",
        &m.ingest_hists.wal_append,
    );
    p.histogram(
        "yask_wal_fsync_latency_seconds",
        "Individual commit-path fsync latency",
        &m.ingest_hists.wal_fsync,
    );
    p.histogram(
        "yask_checkpoint_latency_seconds",
        "Checkpoint fold latency (snapshot write + log truncation)",
        &m.ingest_hists.checkpoint,
    );
    p.histogram(
        "yask_write_apply_latency_seconds",
        "Executor batch publish latency",
        &m.ingest_hists.write_apply,
    );

    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_obs::validate_exposition;

    #[test]
    fn empty_service_metrics_validate() {
        // The fully-empty snapshot: zero shards, observatory off, nothing
        // recorded. Every family must still be declared — zero-sample
        // families render header-only rather than vanishing, so a scraper
        // never sees one appear out of nowhere.
        let exec = ExecSnapshot::default();
        let hists = IngestHistSnapshots::default();
        let text = render_metrics(&MetricsInputs {
            exec: &exec,
            admission: &AdmissionSnapshot::default(),
            ingest_hists: &hists,
            wal: None,
            ckpt: &CheckpointStats::default(),
            corpus_chunks_copied: 0,
            corpus_copy_bytes: 0,
            coalesce_groups: 0,
            coalesce_batches: 0,
            sessions_live: 0,
            sessions_pinned: 0,
            traces_recorded: 0,
            uptime_seconds: 0.0,
        });
        let summary = validate_exposition(&text).expect("exposition must validate");
        for name in [
            "yask_topk_latency_seconds",
            "yask_topk_cache_hit_latency_seconds",
            "yask_shard_search_latency_seconds",
            "yask_whynot_latency_seconds",
            "yask_wal_append_latency_seconds",
            "yask_wal_fsync_latency_seconds",
            "yask_checkpoint_latency_seconds",
            "yask_write_apply_latency_seconds",
        ] {
            assert!(summary.has_family(name), "{name} missing");
        }
        assert_eq!(summary.histograms, 8, "histogram families: {}", summary.histograms);
        assert!(summary.has_family("yask_queries_total"));
        assert!(summary.has_family("yask_cache_hits_total"));
        assert!(summary.has_family("yask_sessions_live"));
        assert!(summary.has_family("yask_wal_durable"));
        // Per-shard and observatory families are declared even with no
        // shards and the observatory off (header-only).
        for name in [
            "yask_shard_queries_total",
            "yask_shard_objects",
            "yask_route_rate",
            "yask_route_p50_seconds",
            "yask_route_p99_seconds",
            "yask_cell_query_heat",
            "yask_cell_write_heat",
            "yask_query_heat_skew",
            "yask_build_info",
            "yask_uptime_seconds",
            "yask_queue_depth_max_1m",
            // Admission / robustness families declare themselves even
            // before anything was ever shed.
            "yask_shed_total",
            "yask_deadline_exceeded_total",
            "yask_degraded_answers_total",
            "yask_degraded_admits_total",
            "yask_queue_saturated_total",
        ] {
            assert!(summary.has_family(name), "{name} missing");
        }
        assert!(text.contains("yask_build_info{version="));
    }

    #[test]
    fn admission_counters_render_the_shed_grid() {
        use yask_exec::ShedCount;
        let exec = ExecSnapshot::default();
        let hists = IngestHistSnapshots::default();
        let admission = AdmissionSnapshot {
            shed: vec![
                ShedCount { route: "whynot", reason: "topk_p99", count: 3 },
                ShedCount { route: "topk", reason: "accept", count: 2 },
            ],
            shed_total: 5,
            degraded_admits: 4,
            degraded_answers: 2,
            deadline_exceeded: 1,
        };
        let text = render_metrics(&MetricsInputs {
            exec: &exec,
            admission: &admission,
            ingest_hists: &hists,
            wal: None,
            ckpt: &CheckpointStats::default(),
            corpus_chunks_copied: 0,
            corpus_copy_bytes: 0,
            coalesce_groups: 0,
            coalesce_batches: 0,
            sessions_live: 0,
            sessions_pinned: 0,
            traces_recorded: 0,
            uptime_seconds: 0.0,
        });
        validate_exposition(&text).expect("exposition must validate");
        assert!(text.contains(r#"yask_shed_total{route="whynot",reason="topk_p99"} 3"#));
        assert!(text.contains(r#"yask_shed_total{route="topk",reason="accept"} 2"#));
        assert!(text.contains("yask_deadline_exceeded_total 1"));
        assert!(text.contains("yask_degraded_answers_total 2"));
        assert!(text.contains("yask_degraded_admits_total 4"));
    }

    #[test]
    fn workload_observatory_renders_windowed_gauges() {
        use yask_exec::WorkloadSnapshot;
        let exec = ExecSnapshot {
            workload: Some(WorkloadSnapshot {
                query_heat: vec![8.0, 0.0],
                write_heat: vec![0.0, 2.0],
                query_touches: vec![8, 0],
                write_touches: vec![0, 2],
                query_skew: 2.0,
                write_skew: 2.0,
                ..Default::default()
            }),
            queue_depth_max_1m: 7,
            ..Default::default()
        };
        let hists = IngestHistSnapshots::default();
        let text = render_metrics(&MetricsInputs {
            exec: &exec,
            admission: &AdmissionSnapshot::default(),
            ingest_hists: &hists,
            wal: None,
            ckpt: &CheckpointStats::default(),
            corpus_chunks_copied: 0,
            corpus_copy_bytes: 0,
            coalesce_groups: 0,
            coalesce_batches: 0,
            sessions_live: 0,
            sessions_pinned: 0,
            traces_recorded: 0,
            uptime_seconds: 12.5,
        });
        validate_exposition(&text).expect("exposition must validate");
        // Every route appears at every horizon.
        for route in [
            "topk", "topk_hit", "whynot_explain", "whynot_preference", "whynot_keyword",
            "whynot_combined", "whynot_full", "writes",
        ] {
            for window in ["1s", "10s", "1m"] {
                let needle = format!(r#"yask_route_rate{{route="{route}",window="{window}"}}"#);
                assert!(text.contains(&needle), "{needle} missing");
            }
        }
        assert!(text.contains(r#"yask_cell_query_heat{cell="0"} 8"#));
        assert!(text.contains(r#"yask_cell_write_heat{cell="1"} 2"#));
        assert!(text.contains(r#"yask_cell_query_touches_total{cell="0"} 8"#));
        assert!(text.contains("yask_query_heat_skew 2"));
        assert!(text.contains("yask_queue_depth_max_1m 7"));
        assert!(text.contains("yask_uptime_seconds 12.5"));
    }
}
