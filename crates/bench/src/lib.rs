//! Benchmark harness support: standard workloads, wall-clock timing and
//! paper-style table printing shared by the Criterion benches and the
//! `experiments` binary.

use std::time::Instant;

use yask_data::{SpatialDistribution, SynthConfig};
use yask_index::Corpus;
use yask_server::Json;
use yask_util::Summary;

/// Host facts stamped into every `BENCH_*.json` header so archived
/// numbers stay attributable to the machine that produced them: the
/// logical CPU budget the process actually sees (cgroup/affinity-aware
/// via `std::thread::available_parallelism`), OS and architecture.
pub fn host_info() -> Json {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("available_parallelism", Json::Num(cpus as f64)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

/// The standard clustered synthetic corpus used by the performance
/// experiments (vocabulary 5 000, Zipf 0.8, 12 clusters) at size `n` —
/// vocabulary size and skew chosen to match the keyword selectivity of
/// web POI corpora (most terms rare, a few ubiquitous).
pub fn std_corpus(n: usize) -> Corpus {
    SynthConfig {
        n,
        vocab: 5_000,
        min_doc: 3,
        max_doc: 10,
        zipf_s: 0.8,
        spatial: SpatialDistribution::Clustered {
            clusters: 12,
            sigma: 0.03,
        },
        seed: 42,
    }
    .build()
}

/// Times `f` for `reps` repetitions; returns per-call microseconds.
pub fn time_us<F: FnMut()>(reps: usize, mut f: F) -> Summary {
    let mut s = Summary::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        s.record_duration(t0.elapsed());
    }
    s
}

/// Prints an aligned table: a title line, a header row, then data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let render = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", render(&head));
    for row in rows {
        println!("{}", render(row));
    }
}

/// Formats a mean ± std pair in microseconds, switching to milliseconds
/// when large.
pub fn fmt_us(mean_us: f64) -> String {
    if mean_us >= 10_000.0 {
        format!("{:.2}ms", mean_us / 1000.0)
    } else {
        format!("{mean_us:.1}µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_corpus_is_deterministic_and_sized() {
        let a = std_corpus(500);
        let b = std_corpus(500);
        assert_eq!(a.len(), 500);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.loc, y.loc);
        }
    }

    #[test]
    fn time_us_records_reps() {
        let s = time_us(5, || {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn fmt_us_switches_units() {
        assert!(fmt_us(100.0).ends_with("µs"));
        assert!(fmt_us(50_000.0).ends_with("ms"));
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
        );
    }
}
