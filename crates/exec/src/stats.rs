//! The executor's metrics surface.
//!
//! Lock-free counters updated on every query and every write batch —
//! per-shard search timings, traversal work and applied write ops,
//! scatter/single path counts, batch/rebalance totals — snapshotted
//! together with pool queue depth, cache counters and the current epoch's
//! corpus occupancy into one [`ExecSnapshot`] that the server exports
//! through `/stats`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use yask_index::{CopyStats, KcRTree};
use yask_obs::{Histogram, HistogramSnapshot};

use crate::cache::{CacheSnapshot, WhyNotKind};
use crate::observe::WorkloadSnapshot;

/// The shape of one shard tree in the pinned epoch: live objects, node
/// count and estimated resident bytes (node frames + entry vectors +
/// keyword-count maps, excluding the shared corpus). Summed across shards
/// this is the executor's whole index footprint — with the global tree
/// gone there is nothing else. `arena_chunks`/`arena_bytes` describe the
/// persistent node slab behind the tree (freed slack included; chunks may
/// be shared with older epochs).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ShardShape {
    pub(crate) objects: usize,
    pub(crate) nodes: usize,
    pub(crate) bytes: usize,
    pub(crate) arena_chunks: usize,
    pub(crate) arena_bytes: usize,
}

impl ShardShape {
    pub(crate) fn of(tree: &KcRTree) -> Self {
        let s = tree.stats();
        ShardShape {
            objects: s.objects,
            nodes: s.nodes,
            bytes: s.bytes,
            arena_chunks: s.chunks,
            arena_bytes: s.arena_bytes,
        }
    }
}

/// Per-shard accumulators.
#[derive(Default)]
pub(crate) struct ShardCounters {
    queries: AtomicU64,
    nanos: AtomicU64,
    nodes_expanded: AtomicU64,
    objects_scored: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    /// Per-shard search latency distribution (same samples `nanos` sums).
    search: Histogram,
}

impl ShardCounters {
    pub(crate) fn record(&self, elapsed: Duration, nodes: usize, objects: usize) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.nodes_expanded.fetch_add(nodes as u64, Ordering::Relaxed);
        self.objects_scored
            .fetch_add(objects as u64, Ordering::Relaxed);
        self.search.record(elapsed);
    }

    pub(crate) fn record_writes(&self, inserts: usize, deletes: usize) {
        self.inserts.fetch_add(inserts as u64, Ordering::Relaxed);
        self.deletes.fetch_add(deletes as u64, Ordering::Relaxed);
    }
}

/// One latency histogram per why-not module (plus the bundled answer).
#[derive(Default)]
pub(crate) struct WhyNotHists {
    explain: Histogram,
    preference: Histogram,
    keyword: Histogram,
    combined: Histogram,
    full: Histogram,
}

impl WhyNotHists {
    pub(crate) fn of(&self, kind: WhyNotKind) -> &Histogram {
        match kind {
            WhyNotKind::Explain => &self.explain,
            WhyNotKind::Preference => &self.preference,
            WhyNotKind::Keyword => &self.keyword,
            WhyNotKind::Combined => &self.combined,
            WhyNotKind::Full => &self.full,
        }
    }

    fn snapshot(&self) -> WhyNotHistSnapshots {
        WhyNotHistSnapshots {
            explain: self.explain.snapshot(),
            preference: self.preference.snapshot(),
            keyword: self.keyword.snapshot(),
            combined: self.combined.snapshot(),
            full: self.full.snapshot(),
        }
    }
}

/// Snapshots of the per-module why-not latency histograms.
#[derive(Clone, Debug, Default)]
pub struct WhyNotHistSnapshots {
    pub explain: HistogramSnapshot,
    pub preference: HistogramSnapshot,
    pub keyword: HistogramSnapshot,
    pub combined: HistogramSnapshot,
    pub full: HistogramSnapshot,
}

impl WhyNotHistSnapshots {
    /// The modules with their exported label values, in a fixed order.
    pub fn iter_named(&self) -> [(&'static str, &HistogramSnapshot); 5] {
        [
            ("explain", &self.explain),
            ("preference", &self.preference),
            ("keyword", &self.keyword),
            ("combined", &self.combined),
            ("full", &self.full),
        ]
    }
}

/// Executor-wide accumulators.
pub(crate) struct ExecCounters {
    pub(crate) shards: Vec<ShardCounters>,
    /// Uncached top-k compute latency (the cold path).
    pub(crate) topk: Histogram,
    /// Top-k cache *hit* latency — so hit/miss cost compares honestly.
    pub(crate) topk_hit: Histogram,
    /// Per-module why-not latencies.
    pub(crate) whynot: WhyNotHists,
    queries: AtomicU64,
    scatter_queries: AtomicU64,
    scan_fallback_queries: AtomicU64,
    batches: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    rebalances: AtomicU64,
    index_chunks_copied: AtomicU64,
    index_chunks_created: AtomicU64,
    index_copy_bytes: AtomicU64,
}

impl ExecCounters {
    pub(crate) fn new(shards: usize) -> Self {
        ExecCounters {
            shards: (0..shards).map(|_| ShardCounters::default()).collect(),
            topk: Histogram::new(),
            topk_hit: Histogram::new(),
            whynot: WhyNotHists::default(),
            queries: AtomicU64::new(0),
            scatter_queries: AtomicU64::new(0),
            scan_fallback_queries: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            index_chunks_copied: AtomicU64::new(0),
            index_chunks_created: AtomicU64::new(0),
            index_copy_bytes: AtomicU64::new(0),
        }
    }

    /// Counts one computed top-k query: answered by scatter-gather, or
    /// (`scan_fallback`) by the exact scan after a shard reply went
    /// missing.
    pub(crate) fn record_query(&self, scan_fallback: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if scan_fallback {
            self.scan_fallback_queries.fetch_add(1, Ordering::Relaxed);
        } else {
            self.scatter_queries.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_batch(&self, inserts: usize, deletes: usize, rebalanced: bool) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inserts.fetch_add(inserts as u64, Ordering::Relaxed);
        self.deletes.fetch_add(deletes as u64, Ordering::Relaxed);
        if rebalanced {
            self.rebalances.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accumulates one batch's tree copy-on-write bill (the arena chunks
    /// the batch's spines copied or created). Rebalance rebuilds are not
    /// billed here — they are counted by `rebalances` and are not
    /// path-copying work.
    pub(crate) fn record_index_copy(&self, copy: &CopyStats) {
        self.index_chunks_copied
            .fetch_add(copy.chunks_copied as u64, Ordering::Relaxed);
        self.index_chunks_created
            .fetch_add(copy.chunks_created as u64, Ordering::Relaxed);
        self.index_copy_bytes
            .fetch_add(copy.bytes_copied as u64, Ordering::Relaxed);
    }
}

/// Point-in-time view of one shard's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardSnapshot {
    /// Objects indexed by the shard.
    pub objects: usize,
    /// Reachable KcR-tree nodes in the shard.
    pub nodes: usize,
    /// Estimated resident bytes of the shard tree (nodes + entries +
    /// keyword-count maps; the shared corpus is excluded).
    pub index_bytes: usize,
    /// Searches the shard has run.
    pub queries: u64,
    /// Total search wall-clock, microseconds.
    pub total_us: f64,
    /// Mean search wall-clock, microseconds (0 with no queries).
    pub mean_us: f64,
    /// Median search wall-clock, microseconds (bucket-midpoint estimate,
    /// ≤ ~1.6 % relative error; 0 with no queries).
    pub p50_us: f64,
    /// 99th-percentile search wall-clock, microseconds (same estimator).
    pub p99_us: f64,
    /// Tree nodes expanded across all searches.
    pub nodes_expanded: u64,
    /// Objects exactly scored across all searches.
    pub objects_scored: u64,
    /// Inserts routed to this shard.
    pub inserts: u64,
    /// Deletes routed to this shard.
    pub deletes: u64,
    /// Chunks in the shard tree's persistent node arena (some may be
    /// physically shared with older epochs' trees).
    pub arena_chunks: usize,
    /// Approximate resident bytes of the shard's node slab, freed slack
    /// included (`arena_bytes ≥ index_bytes`).
    pub arena_bytes: usize,
}

/// Point-in-time view of the whole executor.
#[derive(Clone, Debug, Default)]
pub struct ExecSnapshot {
    /// Configured shard count (1 = single-tree path).
    pub shards: usize,
    /// Worker threads serving the scatter pool (0 when single-tree).
    pub workers: usize,
    /// Jobs submitted to the pool but not yet started.
    pub queue_depth: usize,
    /// Highest queue depth any submit ever observed — saturation between
    /// `/stats` scrapes would be invisible in the point-in-time sample.
    pub queue_depth_max: usize,
    /// Highest queue depth observed in the last minute — the reset-safe
    /// cousin of `queue_depth_max` (a day-old spike ages out of this
    /// one), and the health surface's overload input.
    pub queue_depth_max_1m: usize,
    /// Submits that found the bounded queue full and ran the job inline
    /// on the caller instead — nonzero means the pool is saturated and
    /// backpressure is reaching submitters.
    pub queue_saturated: usize,
    /// Top-k queries computed (cache hits are counted by the caches).
    pub queries: u64,
    /// Queries computed by scatter-gather.
    pub scatter_queries: u64,
    /// Queries answered by the exact corpus scan because a shard reply
    /// went missing (a shard job panicked mid-scatter).
    pub scan_fallback_queries: u64,
    /// The published corpus epoch (0 until the first write batch).
    pub epoch: u64,
    /// Live objects in the current epoch.
    pub live_objects: usize,
    /// Tombstoned slots in the current epoch.
    pub tombstones: usize,
    /// Write batches applied.
    pub batches: u64,
    /// Objects inserted across all batches.
    pub inserts: u64,
    /// Objects deleted across all batches.
    pub deletes: u64,
    /// Shard rebalances (full STR re-splits) triggered by size skew.
    pub rebalances: u64,
    /// Total reachable index nodes across all shard trees — with the
    /// global tree removed, this *is* the executor's entire tree count.
    pub index_nodes: usize,
    /// Total estimated index bytes across all shard trees.
    pub index_bytes: usize,
    /// Arena chunks *copied* by path-copying tree updates across all
    /// batches — the tree-side analogue of the corpus `chunks_copied`.
    pub index_chunks_copied: u64,
    /// Arena chunks freshly created by tree updates across all batches.
    pub index_chunks_created: u64,
    /// Bytes deep-copied by path-copying tree updates across all batches.
    /// Per batch this is O(spine × chunk), independent of tree size — the
    /// number that used to be the whole touched shard.
    pub index_copy_bytes: u64,
    /// Per-shard search counters.
    pub per_shard: Vec<ShardSnapshot>,
    /// Top-k result cache counters.
    pub topk_cache: CacheSnapshot,
    /// Why-not answer cache counters.
    pub answer_cache: CacheSnapshot,
    /// Uncached top-k compute latency distribution.
    pub topk_hist: HistogramSnapshot,
    /// Top-k cache-hit latency distribution.
    pub topk_hit_hist: HistogramSnapshot,
    /// Per-module why-not latency distributions.
    pub whynot_hists: WhyNotHistSnapshots,
    /// Per-shard search latency distributions, parallel to `per_shard`
    /// (kept out of [`ShardSnapshot`] so that stays `Copy`).
    pub shard_search_hists: Vec<HistogramSnapshot>,
    /// The workload observatory's view: windowed rates/quantiles per
    /// route, per-cell heat, keyword sketch. `None` when the observatory
    /// is disabled in [`crate::ExecConfig`].
    pub workload: Option<WorkloadSnapshot>,
    /// Out-of-core pager counters; `None` when
    /// [`crate::ExecConfig::resident_budget`] is unset (fully resident).
    pub pager: Option<PagerSnapshot>,
}

/// Out-of-core serving counters: the shared page-level buffer pool plus
/// the aggregated decoded-chunk caches of the live paged shard trees.
/// Pool counters are monotonic for the executor's lifetime; chunk
/// counters aggregate over trees still alive (superseded epochs drop
/// out once their last reader unpins).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagerSnapshot {
    /// Buffer-pool page reads served from cache.
    pub pool_hits: u64,
    /// Buffer-pool page reads that went to disk.
    pub pool_misses: u64,
    /// Buffer-pool pages evicted.
    pub pool_evictions: u64,
    /// Buffer-pool cache capacity in pages.
    pub pool_capacity: usize,
    /// Pages allocated in the backing file.
    pub pool_pages: u64,
    /// Decoded-chunk cache hits across live paged trees.
    pub chunk_hits: u64,
    /// Chunk faults (decode-from-pages) across live paged trees.
    pub chunk_misses: u64,
    /// Decoded chunks evicted across live paged trees.
    pub chunk_evictions: u64,
    /// Decoded chunks currently resident across live paged trees.
    pub resident_chunks: usize,
    /// Total arena chunks across live paged trees.
    pub chunk_count: usize,
    /// The per-tree decoded-chunk byte budget.
    pub budget_bytes: usize,
    /// Paged trees currently alive (includes pinned past epochs).
    pub paged_trees: usize,
}

/// The non-counter inputs of a snapshot, gathered by the executor from
/// the pinned epoch, the pool and the caches.
pub(crate) struct SnapshotInputs {
    pub shard_shapes: Vec<ShardShape>,
    pub workers: usize,
    pub queue_depth: usize,
    pub queue_depth_max: usize,
    pub queue_depth_max_1m: usize,
    pub queue_saturated: usize,
    pub epoch: u64,
    pub live_objects: usize,
    pub tombstones: usize,
    pub topk_cache: CacheSnapshot,
    pub answer_cache: CacheSnapshot,
    pub workload: Option<WorkloadSnapshot>,
    pub pager: Option<PagerSnapshot>,
}

impl ExecCounters {
    pub(crate) fn snapshot(&self, inputs: SnapshotInputs) -> ExecSnapshot {
        let per_shard = self
            .shards
            .iter()
            .zip(&inputs.shard_shapes)
            .map(|(c, shape)| {
                let queries = c.queries.load(Ordering::Relaxed);
                let total_us = c.nanos.load(Ordering::Relaxed) as f64 / 1_000.0;
                let search = c.search.snapshot();
                ShardSnapshot {
                    objects: shape.objects,
                    nodes: shape.nodes,
                    index_bytes: shape.bytes,
                    queries,
                    total_us,
                    mean_us: if queries == 0 {
                        0.0
                    } else {
                        total_us / queries as f64
                    },
                    p50_us: search.p50() as f64 / 1_000.0,
                    p99_us: search.p99() as f64 / 1_000.0,
                    nodes_expanded: c.nodes_expanded.load(Ordering::Relaxed),
                    objects_scored: c.objects_scored.load(Ordering::Relaxed),
                    inserts: c.inserts.load(Ordering::Relaxed),
                    deletes: c.deletes.load(Ordering::Relaxed),
                    arena_chunks: shape.arena_chunks,
                    arena_bytes: shape.arena_bytes,
                }
            })
            .collect();
        let shard_search_hists: Vec<HistogramSnapshot> =
            self.shards.iter().map(|c| c.search.snapshot()).collect();
        ExecSnapshot {
            shards: inputs.shard_shapes.len().max(1),
            workers: inputs.workers,
            queue_depth: inputs.queue_depth,
            queue_depth_max: inputs.queue_depth_max,
            queue_depth_max_1m: inputs.queue_depth_max_1m,
            queue_saturated: inputs.queue_saturated,
            queries: self.queries.load(Ordering::Relaxed),
            scatter_queries: self.scatter_queries.load(Ordering::Relaxed),
            scan_fallback_queries: self.scan_fallback_queries.load(Ordering::Relaxed),
            epoch: inputs.epoch,
            live_objects: inputs.live_objects,
            tombstones: inputs.tombstones,
            batches: self.batches.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            rebalances: self.rebalances.load(Ordering::Relaxed),
            index_nodes: inputs.shard_shapes.iter().map(|s| s.nodes).sum(),
            index_bytes: inputs.shard_shapes.iter().map(|s| s.bytes).sum(),
            index_chunks_copied: self.index_chunks_copied.load(Ordering::Relaxed),
            index_chunks_created: self.index_chunks_created.load(Ordering::Relaxed),
            index_copy_bytes: self.index_copy_bytes.load(Ordering::Relaxed),
            per_shard,
            topk_cache: inputs.topk_cache,
            answer_cache: inputs.answer_cache,
            topk_hist: self.topk.snapshot(),
            topk_hit_hist: self.topk_hit.snapshot(),
            whynot_hists: self.whynot.snapshot(),
            shard_search_hists,
            workload: inputs.workload,
            pager: inputs.pager,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = ExecCounters::new(2);
        c.record_query(true);
        c.record_query(false);
        c.shards[0].record(Duration::from_micros(100), 5, 20);
        c.shards[0].record(Duration::from_micros(300), 7, 30);
        c.shards[1].record(Duration::from_micros(50), 1, 2);
        c.shards[1].record_writes(3, 1);
        c.record_batch(3, 1, false);
        c.record_batch(0, 2, true);
        c.record_index_copy(&CopyStats {
            chunks_copied: 2,
            chunks_created: 1,
            bytes_copied: 4096,
        });
        let s = c.snapshot(SnapshotInputs {
            shard_shapes: vec![
                ShardShape { objects: 10, nodes: 3, bytes: 900, arena_chunks: 1, arena_bytes: 950 },
                ShardShape { objects: 12, nodes: 4, bytes: 1100, arena_chunks: 2, arena_bytes: 1300 },
            ],
            workers: 4,
            queue_depth: 0,
            queue_depth_max: 7,
            queue_depth_max_1m: 2,
            queue_saturated: 3,
            epoch: 2,
            live_objects: 22,
            tombstones: 3,
            topk_cache: CacheSnapshot::default(),
            answer_cache: CacheSnapshot::default(),
            workload: None,
            pager: None,
        });
        assert_eq!(s.queries, 2);
        assert_eq!(s.scatter_queries, 1);
        assert_eq!(s.scan_fallback_queries, 1);
        assert_eq!(s.per_shard.len(), 2);
        assert_eq!(s.per_shard[0].queries, 2);
        assert!((s.per_shard[0].mean_us - 200.0).abs() < 1e-9);
        assert_eq!(s.per_shard[0].nodes_expanded, 12);
        assert_eq!(s.per_shard[1].objects, 12);
        assert_eq!(s.per_shard[1].nodes, 4);
        assert_eq!(s.per_shard[1].index_bytes, 1100);
        assert_eq!(s.index_nodes, 7);
        assert_eq!(s.index_bytes, 2000);
        assert_eq!(s.per_shard[1].inserts, 3);
        assert_eq!(s.per_shard[1].deletes, 1);
        assert_eq!(s.per_shard[1].arena_chunks, 2);
        assert_eq!(s.per_shard[1].arena_bytes, 1300);
        assert_eq!(s.index_chunks_copied, 2);
        assert_eq!(s.index_chunks_created, 1);
        assert_eq!(s.index_copy_bytes, 4096);
        assert_eq!((s.epoch, s.live_objects, s.tombstones), (2, 22, 3));
        assert_eq!((s.batches, s.inserts, s.deletes, s.rebalances), (2, 3, 3, 1));
        assert_eq!(s.queue_depth_max, 7);
        assert_eq!(s.queue_depth_max_1m, 2);
        assert_eq!(s.queue_saturated, 3);
        assert!(s.workload.is_none());
        // The shard histogram sampled the same searches the counters did.
        assert_eq!(s.shard_search_hists.len(), 2);
        assert_eq!(s.shard_search_hists[0].count, 2);
        assert_eq!(s.shard_search_hists[1].count, 1);
        assert!(s.per_shard[0].p50_us > 0.0);
        assert!(s.per_shard[0].p99_us >= s.per_shard[0].p50_us);
        // p50 of {100µs, 300µs} is the lower sample, within bucket error.
        assert!((s.per_shard[0].p50_us - 100.0).abs() / 100.0 < 0.025);
    }

    #[test]
    fn whynot_hists_route_by_kind() {
        let c = ExecCounters::new(1);
        c.whynot.of(WhyNotKind::Explain).record(Duration::from_micros(10));
        c.whynot.of(WhyNotKind::Keyword).record(Duration::from_micros(20));
        c.whynot.of(WhyNotKind::Keyword).record(Duration::from_micros(30));
        let s = c.whynot.snapshot();
        assert_eq!(s.explain.count, 1);
        assert_eq!(s.keyword.count, 2);
        assert_eq!(s.preference.count, 0);
        let named: Vec<&str> = s.iter_named().iter().map(|(n, _)| *n).collect();
        assert_eq!(named, ["explain", "preference", "keyword", "combined", "full"]);
    }
}
