//! Per-layer attribution of the traced run, measured from outside the
//! program: the benchmark's own timestamps, a wrapper around the
//! service's handler, the span tree `?trace=1` returns, `/stats` taken
//! before and after, and the ingest latency histograms.

use std::collections::HashMap;

use yask_ingest::IngestHistSnapshots;
use yask_obs::HistogramSnapshot;
use yask_server::Json;

use crate::drive::{Phase, Record};
use crate::stats::{tail_quantile, windowed, Stages, Timing};
use crate::workload::{Class, Module, Step};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("server.edge_us.p50", "us"),
    ("server.edge_us.tail", "us"),
    ("server.handler_us.topk.p50", "us"),
    ("server.handler_us.whynot.p50", "us"),
    ("server.handler_us.write.p50", "us"),
    ("server.handler_us.close.p50", "us"),
    ("server.resp_bytes.topk", "bytes"),
    ("server.resp_bytes.whynot", "bytes"),
    ("server.resp_bytes.write", "bytes"),
    ("server.resp_bytes.close", "bytes"),
    ("server.conns_per_1k", "count"),
    ("api.self_us.p50", "us"),
    ("api.self_us.tail", "us"),
    ("api.sessions_live", "count"),
    ("api.pinned_epochs", "count"),
    ("api.shed.topk.queue_depth", "count"),
    ("api.shed.topk.topk_p99", "count"),
    ("api.shed.topk.accept", "count"),
    ("api.shed.whynot.queue_depth", "count"),
    ("api.shed.whynot.topk_p99", "count"),
    ("api.shed.whynot.accept", "count"),
    ("api.shed.write.queue_depth", "count"),
    ("api.shed.write.topk_p99", "count"),
    ("api.shed.write.accept", "count"),
    ("api.degraded_admits", "count"),
    ("exec.cache_lookup_us.p50", "us"),
    ("exec.topk_cache.hit_rate", "ratio"),
    ("exec.scatter_us.p50", "us"),
    ("exec.scatter_us.tail", "us"),
    ("exec.shard_us.max.p50", "us"),
    ("exec.shard_us.max.tail", "us"),
    ("exec.gather_us.p50", "us"),
    ("exec.shard_skew", "ratio"),
    ("exec.queue_depth_max", "count"),
    ("exec.queue_saturated", "count"),
    ("exec.answer_cache.hit_rate", "ratio"),
    ("query.nodes_expanded_per_query", "count"),
    ("query.objects_scored_per_query", "count"),
    ("index.bytes", "bytes"),
    ("index.nodes", "count"),
    ("core.explain_us.p50", "us"),
    ("core.explain_us.tail", "us"),
    ("core.preference_us.p50", "us"),
    ("core.preference_us.tail", "us"),
    ("core.keywords_us.p50", "us"),
    ("core.keywords_us.tail", "us"),
    ("core.combined_us.p50", "us"),
    ("core.combined_us.tail", "us"),
    ("ingest.write_apply_us.p50", "us"),
    ("ingest.write_apply_us.tail", "us"),
    ("ingest.wal_append_us.p50", "us"),
    ("ingest.wal_append_us.tail", "us"),
    ("ingest.wal_fsync_us.p50", "us"),
    ("ingest.wal_fsync_us.tail", "us"),
    ("ingest.checkpoint_us", "us"),
    ("ingest.checkpoints", "count"),
    ("pager.wal_pool_misses", "count"),
    ("ingest.batches_per_group", "ratio"),
    ("ingest.index_copy_bytes_per_batch", "bytes"),
    ("ingest.corpus_copy_bytes_per_batch", "bytes"),
    ("ingest.epochs_per_s", "1/s"),
    ("bench.gen_lag_ms.tail", "ms"),
];

/// The one metric computed from both traced and untraced phases.
pub const TRACE_OVERHEAD: (&str, &str) = ("bench.trace_overhead_pct", "%");

/// A metric value with the sample it came from: `n` samples, reported
/// at percentile `q` (`None` for counts and ratios).
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    pub n: usize,
    pub q: Option<f64>,
}

impl Value {
    /// A count, ratio or mean over `n` samples.
    pub fn plain(value: f64, n: usize) -> Value {
        Value { value, n, q: None }
    }

    fn count(value: f64) -> Value {
        Value::plain(value, 1)
    }
}

/// What the handler wrapper recorded for one request.
#[derive(Clone, Copy)]
pub struct HandlerTime {
    pub ns: u64,
    pub resp_bytes: usize,
}

/// Inputs of the attribution.
pub struct Traced<'a> {
    pub phase: &'a Phase,
    pub handler: &'a HashMap<u64, HandlerTime>,
    pub stats_before: &'a Json,
    pub stats_after: &'a Json,
    pub ingest: &'a IngestHistSnapshots,
}

/// The attribution: metric values, plus the stage check's verdict.
pub struct Attribution {
    pub values: HashMap<&'static str, Value>,
    /// The first traced request whose clocks did not nest, if any.
    pub stage_error: Option<String>,
    /// Mean wait, edge, api self and program spans of the traced
    /// `/query` and `/whynot/*` requests, and the mean handler time the
    /// program's own trace did not cover (part of api self).
    pub stage_means_us: [f64; 5],
}

/// The highest percentile up to `q_max` that `values` support, as the
/// median over time windows (`values` are in request order); 0 for an
/// empty sample.
pub fn windowed_value(values: &[f64], q_max: f64) -> Value {
    let (q, value) = windowed(values, q_max).unwrap_or((0.5, 0.0));
    Value {
        value,
        n: values.len(),
        q: Some(q),
    }
}

fn mean_value(values: &[f64]) -> Value {
    let n = values.len();
    let value = if n == 0 {
        0.0
    } else {
        values.iter().sum::<f64>() / n as f64
    };
    Value::plain(value, n)
}

/// A numeric `/stats` leaf (0 when absent).
pub fn leaf(stats: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(stats, |j, key| j.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn delta(t: &Traced, path: &[&str]) -> f64 {
    (leaf(t.stats_after, path) - leaf(t.stats_before, path)).max(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_shard_sum(stats: &Json, key: &str) -> f64 {
    stats
        .get("exec")
        .and_then(|e| e.get("per_shard"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|s| s.get(key).and_then(Json::as_f64).unwrap_or(0.0))
        .sum()
}

fn shed_count(stats: &Json, route: &str, reason: &str) -> f64 {
    stats
        .get("admission")
        .and_then(|a| a.get("shed"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|c| {
            c.get("route").and_then(Json::as_str) == Some(route)
                && c.get("reason").and_then(Json::as_str) == Some(reason)
        })
        .filter_map(|c| c.get("count").and_then(Json::as_f64))
        .sum()
}

/// A span of a returned trace.
struct Span<'a> {
    id: f64,
    parent: Option<f64>,
    name: &'a str,
    dur_us: f64,
}

fn spans_of(body: &Json) -> Vec<Span<'_>> {
    body.get("trace")
        .and_then(|t| t.get("spans"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| {
            Some(Span {
                id: s.get("id")?.as_f64()?,
                parent: s.get("parent").and_then(Json::as_f64),
                name: s.get("name")?.as_str()?,
                dur_us: s.get("dur_us")?.as_f64()?,
            })
        })
        .collect()
}

/// Histogram quantiles with the same refusal rule as [`Sample`].
fn hist_value(h: &HistogramSnapshot, tail: bool) -> Value {
    let n = h.count as usize;
    let q = if tail { tail_quantile(n, 1.0) } else { 0.5 };
    Value {
        value: h.quantile(q) as f64 / 1e3,
        n,
        q: Some(q),
    }
}

pub fn attribute(t: &Traced) -> Attribution {
    let mut v: HashMap<&'static str, Value> = HashMap::new();
    let mut edge = Vec::new();
    let mut handler_by_class: HashMap<Class, Vec<f64>> = HashMap::new();
    let mut bytes_by_class: HashMap<Class, Vec<f64>> = HashMap::new();
    let (mut api_self, mut cache, mut scatter, mut shard_max, mut gather, mut skew) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut core: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut stages = Vec::new();
    let mut outside_trace = 0.0;
    let mut stage_error: Option<String> = None;

    let ok = t.phase.records.iter().filter(|r| r.ok());
    for r in ok {
        let Some(h) = t.handler.get(&r.trace_id()) else {
            stage_error
                .get_or_insert_with(|| format!("no handler time for request {}", r.trace_id()));
            continue;
        };
        let class = r.step.class();
        let handler_us = h.ns as f64 / 1e3;
        edge.push((r.done - r.sent) * 1e6 - handler_us);
        handler_by_class.entry(class).or_default().push(handler_us);
        bytes_by_class
            .entry(class)
            .or_default()
            .push(h.resp_bytes as f64);
        if !matches!(r.step, Step::Query(_) | Step::WhyNot(..)) {
            continue;
        }
        let Some(body) = std::str::from_utf8(&r.body)
            .ok()
            .and_then(|s| Json::parse(s).ok())
        else {
            continue;
        };
        let spans = spans_of(&body);
        let roots: f64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_us)
            .sum();
        let Some(total) = body
            .get("trace")
            .and_then(|t| t.get("total_us"))
            .and_then(Json::as_f64)
        else {
            stage_error.get_or_insert_with(|| format!("no trace in request {}", r.trace_id()));
            continue;
        };
        let timing = Timing {
            sched: r.sched * 1e6,
            sent: r.sent * 1e6,
            done: r.done * 1e6,
            handler: handler_us,
            total,
            spans: roots,
        };
        match Stages::split(&timing) {
            Ok(s) => {
                api_self.push(s.api_self);
                outside_trace += timing.handler - timing.total;
                stages.push(s);
            }
            Err(e) => {
                stage_error.get_or_insert(e);
            }
        }
        for s in &spans {
            match s.name {
                "cache_lookup" => cache.push(s.dur_us),
                "scatter" => {
                    scatter.push(s.dur_us);
                    let shards: Vec<f64> = spans
                        .iter()
                        .filter(|c| c.parent == Some(s.id) && c.name.starts_with("shard"))
                        .map(|c| c.dur_us)
                        .collect();
                    if !shards.is_empty() {
                        let max = shards.iter().copied().fold(0.0, f64::max);
                        let mean = shards.iter().sum::<f64>() / shards.len() as f64;
                        shard_max.push(max);
                        skew.push(ratio(max, mean));
                    }
                }
                "gather" => gather.push(s.dur_us),
                name => {
                    if let Some(m) = Module::ALL.iter().find(|m| m.span() == name) {
                        core.entry(m.name()).or_default().push(s.dur_us);
                    }
                }
            }
        }
    }

    v.insert("server.edge_us.p50", windowed_value(&edge, 0.5));
    v.insert("server.edge_us.tail", windowed_value(&edge, 1.0));
    for (class, p50, bytes) in [
        (
            Class::TopK,
            "server.handler_us.topk.p50",
            "server.resp_bytes.topk",
        ),
        (
            Class::WhyNot,
            "server.handler_us.whynot.p50",
            "server.resp_bytes.whynot",
        ),
        (
            Class::Write,
            "server.handler_us.write.p50",
            "server.resp_bytes.write",
        ),
        (
            Class::Close,
            "server.handler_us.close.p50",
            "server.resp_bytes.close",
        ),
    ] {
        v.insert(
            p50,
            windowed_value(&handler_by_class.remove(&class).unwrap_or_default(), 0.5),
        );
        v.insert(
            bytes,
            mean_value(&bytes_by_class.remove(&class).unwrap_or_default()),
        );
    }
    let sent = t.phase.records.iter().filter(|r| r.status != 0).count();
    v.insert(
        "server.conns_per_1k",
        Value::plain(ratio(t.phase.reconnects as f64 * 1e3, sent as f64), sent),
    );
    v.insert("api.self_us.p50", windowed_value(&api_self, 0.5));
    v.insert("api.self_us.tail", windowed_value(&api_self, 1.0));
    v.insert("exec.cache_lookup_us.p50", windowed_value(&cache, 0.5));
    v.insert("exec.scatter_us.p50", windowed_value(&scatter, 0.5));
    v.insert("exec.scatter_us.tail", windowed_value(&scatter, 1.0));
    v.insert("exec.shard_us.max.p50", windowed_value(&shard_max, 0.5));
    v.insert("exec.shard_us.max.tail", windowed_value(&shard_max, 1.0));
    v.insert("exec.gather_us.p50", windowed_value(&gather, 0.5));
    v.insert("exec.shard_skew", mean_value(&skew));
    for (m, p50, tail) in [
        ("explain", "core.explain_us.p50", "core.explain_us.tail"),
        (
            "preference",
            "core.preference_us.p50",
            "core.preference_us.tail",
        ),
        ("keywords", "core.keywords_us.p50", "core.keywords_us.tail"),
        ("combined", "core.combined_us.p50", "core.combined_us.tail"),
    ] {
        let d = core.remove(m).unwrap_or_default();
        v.insert(p50, windowed_value(&d, 0.5));
        v.insert(tail, windowed_value(&d, 1.0));
    }

    // `/stats` before and after the phase.
    v.insert(
        "api.sessions_live",
        Value::count(leaf(t.stats_after, &["sessions", "live"])),
    );
    v.insert(
        "api.pinned_epochs",
        Value::count(leaf(t.stats_after, &["sessions", "pinned_epochs"])),
    );
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("api.shed.")) {
        let mut cell = name["api.shed.".len()..].splitn(2, '.');
        let (route, reason) = (cell.next().unwrap_or(""), cell.next().unwrap_or(""));
        let d =
            shed_count(t.stats_after, route, reason) - shed_count(t.stats_before, route, reason);
        v.insert(name, Value::count(d.max(0.0)));
    }
    v.insert(
        "api.degraded_admits",
        Value::count(delta(t, &["admission", "degraded_admits"])),
    );
    let hit_rate = |cache: &str| {
        let hits = delta(t, &["exec", cache, "hits"]);
        let misses = delta(t, &["exec", cache, "misses"]);
        Value::plain(ratio(hits, hits + misses), (hits + misses) as usize)
    };
    v.insert("exec.topk_cache.hit_rate", hit_rate("topk_cache"));
    v.insert("exec.answer_cache.hit_rate", hit_rate("answer_cache"));
    v.insert(
        "exec.queue_depth_max",
        Value::count(leaf(t.stats_after, &["exec", "queue_depth_max"])),
    );
    v.insert(
        "exec.queue_saturated",
        Value::count(delta(t, &["exec", "queue_saturated"])),
    );
    let computed = delta(t, &["exec", "queries"]);
    for (name, key) in [
        ("query.nodes_expanded_per_query", "nodes_expanded"),
        ("query.objects_scored_per_query", "objects_scored"),
    ] {
        let work = per_shard_sum(t.stats_after, key) - per_shard_sum(t.stats_before, key);
        v.insert(name, Value::plain(ratio(work, computed), computed as usize));
    }
    v.insert(
        "index.bytes",
        Value::count(leaf(t.stats_after, &["exec", "index_bytes"])),
    );
    v.insert(
        "index.nodes",
        Value::count(leaf(t.stats_after, &["exec", "index_nodes"])),
    );

    // The write path: fresh-service histograms plus `/stats` deltas.
    for (h, p50, tail) in [
        (
            &t.ingest.write_apply,
            "ingest.write_apply_us.p50",
            "ingest.write_apply_us.tail",
        ),
        (
            &t.ingest.wal_append,
            "ingest.wal_append_us.p50",
            "ingest.wal_append_us.tail",
        ),
        (
            &t.ingest.wal_fsync,
            "ingest.wal_fsync_us.p50",
            "ingest.wal_fsync_us.tail",
        ),
    ] {
        v.insert(p50, hist_value(h, false));
        v.insert(tail, hist_value(h, true));
    }
    let ckpt = &t.ingest.checkpoint;
    v.insert(
        "ingest.checkpoint_us",
        Value::plain(ckpt.mean_ns() / 1e3, ckpt.count as usize),
    );
    v.insert(
        "ingest.checkpoints",
        Value::count(delta(t, &["ingest", "checkpoints"])),
    );
    v.insert(
        "pager.wal_pool_misses",
        Value::count(delta(t, &["ingest", "wal_pool_misses"])),
    );
    let batches = delta(t, &["exec", "batches"]);
    v.insert(
        "ingest.batches_per_group",
        Value::count(ratio(
            delta(t, &["ingest", "coalesce_batches"]),
            delta(t, &["ingest", "coalesce_groups"]),
        )),
    );
    v.insert(
        "ingest.index_copy_bytes_per_batch",
        Value::plain(
            ratio(delta(t, &["exec", "index_copy_bytes"]), batches),
            batches as usize,
        ),
    );
    v.insert(
        "ingest.corpus_copy_bytes_per_batch",
        Value::plain(
            ratio(delta(t, &["ingest", "copy_bytes"]), batches),
            batches as usize,
        ),
    );
    v.insert(
        "ingest.epochs_per_s",
        Value::count(ratio(delta(t, &["ingest", "epoch"]), t.phase.seconds)),
    );

    if stages.is_empty() {
        stage_error.get_or_insert_with(|| "no traced request to split".to_owned());
    }
    let n = stages.len().max(1) as f64;
    let stage_means_us = [
        stages.iter().map(|s| s.wait).sum::<f64>() / n,
        stages.iter().map(|s| s.edge).sum::<f64>() / n,
        stages.iter().map(|s| s.api_self).sum::<f64>() / n,
        stages.iter().map(|s| s.spans).sum::<f64>() / n,
        outside_trace / n,
    ];
    Attribution {
        values: v,
        stage_error,
        stage_means_us,
    }
}

/// Generator lag of a phase: how late requests were sent beyond waiting
/// for their connection, at the highest supported percentile up to
/// `q_max`.
pub fn gen_lag(phase: &Phase, q_max: f64) -> Value {
    let lag: Vec<f64> = phase
        .records
        .iter()
        .filter(|r| r.status != 0)
        .map(Record::lag_ms)
        .collect();
    windowed_value(&lag, q_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in PER_LAYER.iter().chain([&TRACE_OVERHEAD]) {
            assert!(seen.insert(*name), "{name} twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(unit.len() <= 16 && !unit.is_empty());
        }
    }

    #[test]
    fn leaf_reads_nested_stats() {
        let j = Json::parse(r#"{"exec":{"topk_cache":{"hits":3}}}"#).unwrap();
        assert_eq!(leaf(&j, &["exec", "topk_cache", "hits"]), 3.0);
        assert_eq!(leaf(&j, &["exec", "nope"]), 0.0);
    }
}
