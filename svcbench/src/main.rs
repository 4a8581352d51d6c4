//! End-to-end benchmark of the YASK HTTP service.
//!
//! Builds an unmodified `YaskService` over the `std_corpus` recipe
//! (n = 50 000), serves it with `HttpServer`, and drives one workload over
//! HTTP from this process with a seeded open-loop schedule:
//!
//! ```text
//! cargo run --release --manifest-path svcbench/Cargo.toml -- \
//!     --workload topk_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints latency per route class at the workload's offered
//! rate, and reports the end-to-end metrics: the service's CPU cost as
//! the request rate that would keep every core busy, the share of
//! requests answered in full, set-up time and peak memory. Latency is
//! not among them because host CPU steal moves it far more than any
//! bound (see `LAYERS.md`).
//! `--trace 1` reruns the timed phase on a fresh service with the
//! handler wrapped and `?trace=1` on the traced routes, and splits each
//! request's time across the layers (see `LAYERS.md`). Every answer is
//! checked; a mismatch exits non-zero. The last line of standard output
//! is one JSON object with the metrics.

mod check;
mod client;
mod cpu;
mod drive;
mod layers;
mod stats;
mod workload;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use yask_index::Corpus;
use yask_query::ScoreParams;
use yask_server::http::Handler;
use yask_server::{HttpServer, Json, Request, ServerHandle, ServiceConfig, YaskService};

use check::{Oracle, Tally};
use drive::Phase;
use layers::{windowed_value, HandlerTime, Value};
use stats::Sample;
use workload::{Class, Gen, Workload, N_OBJECTS};

/// The end-to-end metrics, in report order.
const END_TO_END: [(&str, &str); 4] = [
    ("cpu_capacity_qps", "1/s"),
    ("ok_rate", "ratio"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// HTTP worker threads, as the demo server runs.
const SERVER_WORKERS: usize = 4;
/// Service builds timed per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 9;
/// A run whose generator sent one request in ten this late or later is
/// invalid: the service no longer saw the workload's offered rate, so
/// the run measured the generator. Rarer late sends are host stalls that
/// hit the service too; they stretch the printed latencies, not the CPU
/// cost per request.
const GEN_LAG_LIMIT_MS: f64 = 25.0;

/// Why a run produced no result.
enum RunError {
    /// The generator fell behind: the run measured the host, not the
    /// service. Exit code 3.
    Invalid(String),
    /// The program failed: a route, the write-ahead log or `/stats`
    /// did not work. Exit code 1, like a wrong answer.
    Program(String),
}

impl From<String> for RunError {
    fn from(msg: String) -> RunError {
        RunError::Program(msg)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(matches!(value.as_str(), "1" | "true")),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The service configuration: defaults, plus the write workload's
/// durable log with a checkpoint every few dozen batches.
fn service_config(w: Workload) -> ServiceConfig {
    let mut cfg = ServiceConfig::default();
    if w == Workload::TopkWrite {
        cfg.checkpoint.max_wal_batches = workload::WRITE_CHECKPOINT_BATCHES;
    }
    cfg
}

/// A running service and what must be cleaned up after it.
struct Served {
    service: Arc<YaskService>,
    server: ServerHandle,
    wal_dir: Option<PathBuf>,
    handler_log: Arc<Mutex<Vec<(u64, HandlerTime)>>>,
}

impl Served {
    fn stop(mut self) {
        self.server.shutdown();
        drop(self.service);
        if let Some(dir) = self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// How long one service took from the constructor call on the generated
/// corpus to the first answered `GET /health`.
struct Setup {
    wall_s: f64,
    /// CPU seconds this process spent meanwhile: the building threads'
    /// work, which the host's CPU steal stretches far less than it
    /// stretches the parallel build's wall time.
    cpu_s: f64,
}

/// Builds the service over `corpus` and serves it. Returns the running
/// service and its set-up time.
fn serve(
    w: Workload,
    corpus: &Corpus,
    scratch: &Path,
    tag: usize,
    wrapped: bool,
) -> Result<(Served, Setup), String> {
    let vocab = workload::vocabulary();
    let cfg = service_config(w);
    let wal_dir = (w == Workload::TopkWrite).then(|| scratch.join(format!("wal-{tag}")));
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let (t0, cpu0) = (Instant::now(), cpu::process_s());
    let service = match &wal_dir {
        Some(dir) => YaskService::with_wal(corpus.clone(), vocab, cfg, &dir.join("wal"))
            .map_err(|e| format!("open the write-ahead log: {e}"))?,
        None => YaskService::with_config(corpus.clone(), vocab, cfg),
    };
    let service = Arc::new(service);
    let handler_log: Arc<Mutex<Vec<(u64, HandlerTime)>>> = Arc::default();
    let handler: Handler = if wrapped {
        let (svc, log) = (Arc::clone(&service), Arc::clone(&handler_log));
        Arc::new(move |req: &Request| {
            let t = Instant::now();
            let resp = svc.handle(req);
            let ns = t.elapsed().as_nanos() as u64;
            if let Some(id) = req.header("x-bench-id").and_then(|v| v.parse().ok()) {
                let time = HandlerTime {
                    ns,
                    resp_bytes: resp.body.len(),
                };
                log.lock().expect("handler log poisoned").push((id, time));
            }
            resp
        })
    } else {
        Arc::clone(&service).into_handler()
    };
    let server = HttpServer::spawn_with_policy(0, SERVER_WORKERS, handler, service.conn_policy())
        .map_err(|e| format!("bind: {e}"))?;
    let health = client::Conn::new(server.addr())
        .call(&client::render("GET", "/health", "", ""))
        .map_err(|e| format!("GET /health: {e}"))?;
    let setup = Setup {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu::process_s() - cpu0,
    };
    if health.status != 200 {
        return Err(format!("GET /health answered {}", health.status));
    }
    Ok((
        Served {
            service,
            server,
            wal_dir,
            handler_log,
        },
        setup,
    ))
}

fn get_stats(served: &Served) -> Result<Json, String> {
    let reply = client::Conn::new(served.server.addr())
        .call(&client::render("GET", "/stats", "", ""))
        .map_err(|e| format!("GET /stats: {e}"))?;
    std::str::from_utf8(&reply.body)
        .ok()
        .and_then(|s| Json::parse(s).ok())
        .ok_or_else(|| "unparsable /stats".to_owned())
}

/// Peak resident set of this process, the one hosting the service.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the write-ahead logs go: the build directory, inside the
/// checkout.
fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    base.join(format!("svcbench-{}", std::process::id()))
}

/// Everything the benchmark needs besides the service.
struct Env {
    w: Workload,
    corpus: Corpus,
    params: ScoreParams,
    threads: usize,
    scratch: PathBuf,
}

impl Env {
    fn run(&self, served: &Served, plan: &workload::Plan, traced: bool) -> Phase {
        drive::run(
            served.server.addr(),
            plan,
            &self.corpus,
            &self.params,
            traced,
        )
    }

    fn check(&self, phase: &Phase, oracle: Oracle) -> Tally {
        let oracle = if self.w.static_corpus() {
            oracle
        } else {
            Oracle::ShapeOnly
        };
        check::check(&phase.records, &self.corpus, &self.params, oracle)
    }

    /// Brings a fresh service to its steady state and checks the answers.
    fn warm(&self, served: &Served, plan: &workload::Plan, tally: &mut Tally) {
        let phase = self.run(served, plan, false);
        tally.absorb(self.check(&phase, Oracle::All));
    }

    /// The timed plan and the warm-up plan of a phase `seconds` long,
    /// with every oracle the checks need computed.
    fn plans(&self, gen: &mut Gen, seconds: f64) -> (workload::Plan, workload::Plan) {
        let plan = gen.open_plan(self.w.rate(), seconds, self.threads);
        let warm = gen.warmup_plan(self.threads);
        if self.w.static_corpus() {
            let mut cases = workload::cases_of(&warm);
            cases.extend(workload::cases_of(&plan));
            workload::prepare(&cases, &self.corpus, &self.params, self.threads);
        }
        (plan, warm)
    }

    /// After a write workload: the live set and a sample of answers must
    /// match what the generator expects and what the scan oracle says.
    fn final_state(&self, served: &Served, gen: &Gen, tally: &Tally) -> Result<(), String> {
        if self.w.static_corpus() {
            return Ok(());
        }
        let live = served.service.corpus();
        check::final_live_set(&self.corpus, &live, tally)?;
        let mut conn = client::Conn::new(served.server.addr());
        let mut answers = Vec::new();
        for case in gen.hot_pool().iter().step_by(24) {
            let reply = conn
                .call(&workload::Step::Query(Arc::clone(case)).render(
                    &self.corpus,
                    &self.params,
                    0,
                    None,
                ))
                .map_err(|e| format!("final query: {e}"))?;
            answers.push((case.as_ref(), reply.body));
        }
        check::against_live(&answers, &live, &self.params)
    }
}

/// Latencies of one route class in a phase, in the order they were due.
fn class_latency(phase: &Phase, class: Class) -> Vec<f64> {
    phase
        .of_class(class)
        .filter(|r| r.ok())
        .map(|r| (r.done - r.sched) * 1e3)
        .collect()
}

fn fmt_value(name: &str, unit: &str, v: &Value) -> String {
    let at = match v.q {
        Some(q) if name.ends_with("tail") || name.ends_with("tail_ms") => {
            format!(", p{}", (q * 100.0).round())
        }
        _ => String::new(),
    };
    format!("  {name:<38} {:>14.4} {unit:<6} (n={}{at})", v.value, v.n)
}

/// The generator's lag tail over a phase; an invalid run when one request
/// in ten left more than [`GEN_LAG_LIMIT_MS`] late.
fn generator_lag(phase: &Phase) -> Result<Value, RunError> {
    let lag = layers::gen_lag(phase, 0.9);
    if lag.value > GEN_LAG_LIMIT_MS {
        return Err(RunError::Invalid(format!(
            "invalid run: the generator sent {:.1} ms late at p{:.0} (limit {GEN_LAG_LIMIT_MS} ms); the host is too busy to measure the service",
            lag.value,
            lag.q.unwrap_or(0.5) * 100.0
        )));
    }
    Ok(layers::gen_lag(phase, 1.0))
}

type Metrics = Vec<(&'static str, &'static str, Value)>;

/// The `--trace 0` run: end-to-end metrics.
fn end_to_end(env: &Env, args: &Args) -> Result<(Tally, Metrics, Vec<String>), RunError> {
    let w = env.w;
    let mut gen = Gen::new(w, &env.corpus, args.seed);
    let (plan, warm_plan) = env.plans(&mut gen, args.seconds);
    let mut setup = Vec::new();
    let mut served = None;
    for i in 0..SETUPS {
        if let Some(s) = served.take() {
            Served::stop(s);
        }
        let (s, took) = serve(w, &env.corpus, &env.scratch, i, false)?;
        setup.push(took);
        served = Some(s);
    }
    let served = served.expect("at least one setup");
    let mut all = Tally::default();
    env.warm(&served, &warm_plan, &mut all);
    let fixed = env.run(&served, &plan, false);
    let rss = vm_hwm_mb();
    let measured = env.check(&fixed, Oracle::All);
    let lag = generator_lag(&fixed)?;
    let (attempted, failed, degraded, topk_n) = (
        measured.attempted,
        measured.failed,
        measured.degraded,
        measured.topk,
    );
    all.absorb(measured);
    if let Err(e) = env.final_state(&served, &gen, &all) {
        all.mismatches.push(format!("final state: {e}"));
    }
    served.stop();
    all.attempted = attempted;
    all.failed = failed;

    let sent = fixed.records.iter().filter(|r| r.status != 0).count();
    let cpu_ms = fixed.service_cpu_s * 1e3 / sent.max(1) as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = vec![
        format!(
            "  fixed phase: {attempted} requests over {:.2}s",
            fixed.seconds
        ),
        fmt_value("service_cpu_ms_per_req", "ms", &Value::plain(cpu_ms, sent)),
    ];
    // The per-route latencies of every route the workload sends, at the
    // highest percentile the sample supports.
    for class in [Class::TopK, Class::WhyNot, Class::Write] {
        let s = class_latency(&fixed, class);
        if s.is_empty() {
            continue;
        }
        report.push(fmt_value(
            &format!("{}.p50_ms", class.name()),
            "ms",
            &windowed_value(&s, 0.5),
        ));
        let t = windowed_value(&s, 0.99);
        let name = format!("{}.p{:.0}_ms", class.name(), t.q.unwrap_or(0.5) * 100.0);
        let limit = w.limit_ms(class);
        let held = if t.value <= limit { "within" } else { "OVER" };
        report.push(format!(
            "{} {held} its {limit} ms limit",
            fmt_value(&name, "ms", &t)
        ));
    }
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    report.push(fmt_value(
        "error_rate",
        "ratio",
        &Value::plain(ratio(failed, attempted), attempted as usize),
    ));
    report.push(fmt_value(
        "degraded_rate",
        "ratio",
        &Value::plain(ratio(degraded, topk_n), topk_n as usize),
    ));
    report.push(fmt_value("bench.gen_lag_ms.tail", "ms", &lag));
    let median = |f: fn(&Setup) -> f64| Value {
        value: Sample::new(setup.iter().map(f).collect())
            .p50()
            .unwrap_or(0.0),
        n: SETUPS,
        q: Some(0.5),
    };
    report.push(fmt_value("setup_wall_s", "s", &median(|s| s.wall_s)));

    let values = [
        Value::plain(cores as f64 * 1e3 / cpu_ms.max(1e-9), sent),
        Value::plain(
            ratio(attempted - failed - degraded, attempted),
            attempted as usize,
        ),
        median(|s| s.cpu_s),
        Value::plain(rss, 1),
    ];
    let out = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    Ok((all, out, report))
}

/// The `--trace 1` run: per-layer attribution.
fn traced(env: &Env, args: &Args) -> Result<(Tally, Metrics, Vec<String>), RunError> {
    let w = env.w;
    let half = args.seconds / 2.0;
    let mut gen = Gen::new(w, &env.corpus, args.seed);
    let (plan, warm_plan) = env.plans(&mut gen, half);
    let mut warm = Tally::default();

    // Untraced: the baseline the tracing overhead is priced against.
    let (served, _) = serve(w, &env.corpus, &env.scratch, 0, false)?;
    env.warm(&served, &warm_plan, &mut warm);
    let plain = env.run(&served, &plan, false);
    let mut all = env.check(&plain, Oracle::All);
    served.stop();

    // Traced, on a fresh service that has seen the same warm-up.
    let (served, _) = serve(w, &env.corpus, &env.scratch, 1, true)?;
    env.warm(&served, &warm_plan, &mut warm);
    let before = get_stats(&served)?;
    let traced = env.run(&served, &plan, true);
    let after = get_stats(&served)?;
    let ingest = served.service.ingestor().latency_snapshots();
    let mut traced_tally = env.check(&traced, Oracle::All);
    if let Err(e) = env.final_state(&served, &gen, &traced_tally) {
        traced_tally.mismatches.push(format!("final state: {e}"));
    }
    let handler: HashMap<u64, HandlerTime> = served
        .handler_log
        .lock()
        .expect("handler log poisoned")
        .iter()
        .copied()
        .collect();
    served.stop();
    all.absorb(traced_tally);
    all.mismatches.extend(warm.mismatches);

    let a = layers::attribute(&layers::Traced {
        phase: &traced,
        handler: &handler,
        stats_before: &before,
        stats_after: &after,
        ingest: &ingest,
    });
    let mut values = a.values;
    values.insert("bench.gen_lag_ms.tail", generator_lag(&plain)?);
    let p50_plain = windowed_value(&class_latency(&plain, Class::TopK), 0.5).value;
    let p50_traced = windowed_value(&class_latency(&traced, Class::TopK), 0.5).value;
    let overhead = Value::plain((p50_traced / p50_plain.max(1e-9) - 1.0) * 100.0, 2);
    let mut out: Vec<(&str, &str, Value)> = layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name,
                unit,
                values
                    .remove(name)
                    .expect("every per-layer metric is computed"),
            )
        })
        .collect();
    out.push((layers::TRACE_OVERHEAD.0, layers::TRACE_OVERHEAD.1, overhead));
    let [wait, edge, api, spans, outside] = a.stage_means_us;
    let mut report = vec![format!(
        "  stages (mean us): wait {wait:.1} + edge {edge:.1} + api.self {api:.1} + program spans {spans:.1}; {outside:.1} of api.self lies outside the program's trace"
    )];
    match a.stage_error {
        None => report.push(
            "  stage check: pass (spans within trace within handler within round trip, for every traced request)".to_owned(),
        ),
        Some(e) => all.mismatches.push(format!("stage check: {e}")),
    }
    Ok((all, out, report))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "svcbench: {e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let corpus = yask_bench::std_corpus(N_OBJECTS);
    let params = ScoreParams::new(corpus.space()).with_model(service_config(w).exec.yask.model);
    let scratch = scratch_dir();
    let env = Env {
        w,
        corpus,
        params,
        threads,
        scratch: scratch.clone(),
    };
    let cfg = service_config(w);
    let config = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("objects", Json::Num(N_OBJECTS as f64)),
        ("offered_jobs_per_s", Json::Num(w.rate())),
        ("generator_threads", Json::Num(threads as f64)),
        ("server_workers", Json::Num(SERVER_WORKERS as f64)),
        ("shards", Json::Num(cfg.exec.shards as f64)),
        ("topk_cache", Json::Num(cfg.exec.topk_cache as f64)),
        ("answer_cache", Json::Num(cfg.exec.answer_cache as f64)),
        ("trace_ring", Json::Num(cfg.trace_ring as f64)),
        ("wal", Json::Bool(w == Workload::TopkWrite)),
        (
            "checkpoint_max_wal_batches",
            Json::Num(cfg.checkpoint.max_wal_batches as f64),
        ),
        (
            "limits_ms",
            Json::Obj(
                Class::ALL
                    .iter()
                    .map(|c| (c.name().to_owned(), Json::Num(w.limit_ms(*c))))
                    .collect(),
            ),
        ),
        ("host", yask_bench::host_info()),
    ]);
    println!("svcbench config {config}");
    let result = if args.trace {
        traced(&env, &args)
    } else {
        end_to_end(&env, &args)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (tally, metrics, report) = match result {
        Ok(r) => r,
        Err(RunError::Invalid(e)) => {
            eprintln!("svcbench: {e}");
            return ExitCode::from(3);
        }
        Err(RunError::Program(e)) => {
            eprintln!("svcbench: the program failed: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &report {
        println!("{line}");
    }
    for (name, unit, v) in &metrics {
        println!("{}", fmt_value(name, unit, v));
    }
    for m in tally.mismatches.iter().take(10) {
        println!("  MISMATCH {m}");
    }
    let correct = tally.mismatches.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v.value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics `BENCHMARK.json` declares are exactly the ones this
    /// program reports, with the same units.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        let mut per_layer = own(&layers::PER_LAYER);
        per_layer.push((
            layers::TRACE_OVERHEAD.0.to_owned(),
            layers::TRACE_OVERHEAD.1.to_owned(),
        ));
        assert_eq!(declared("per_layer"), per_layer);
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
