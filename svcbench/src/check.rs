//! Answer checks. A wrong answer is a mismatch and fails the run; a
//! refused or failed request is a failure and only counts against
//! `ok_rate`.

use std::collections::BTreeSet;

use yask_index::Corpus;
use yask_query::{topk_scan, ScoreParams};
use yask_server::Json;

use crate::drive::Record;
use crate::workload::{Case, Module, Step, K};

/// What one phase's answers came to.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Top-k answers flagged `degraded: true` (stale or truncated).
    pub degraded: u64,
    pub topk: u64,
    pub mismatches: Vec<String>,
    pub inserted: Vec<u32>,
    pub deleted: Vec<u32>,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.degraded += other.degraded;
        self.topk += other.topk;
        self.mismatches.extend(other.mismatches);
        self.inserted.extend(other.inserted);
        self.deleted.extend(other.deleted);
    }
}

/// How much of a phase's top-k answers to compare with the scan oracle.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Every answer (its oracle was computed before timing).
    All,
    /// None: writes move the corpus under the answers; only their shape
    /// is checked here and the final state afterwards.
    ShapeOnly,
}

pub fn check(records: &[Record], corpus: &Corpus, params: &ScoreParams, oracle: Oracle) -> Tally {
    let mut t = Tally::default();
    for r in records {
        t.attempted += 1;
        if r.step.class() == crate::workload::Class::TopK {
            t.topk += 1;
        }
        if !r.ok() {
            t.failed += 1;
            continue;
        }
        let body = match std::str::from_utf8(&r.body)
            .ok()
            .and_then(|s| Json::parse(s).ok())
        {
            Some(b) => b,
            None => {
                t.mismatches.push(format!(
                    "job {}: unparsable {} body",
                    r.job,
                    r.step.class().name()
                ));
                continue;
            }
        };
        let mut problem: Option<String> = None;
        let mut fail = |what: String| problem = Some(what);
        match &r.step {
            Step::Query(case) => {
                if body.get("complete").and_then(Json::as_bool) != Some(true) {
                    t.failed += 1;
                    continue;
                }
                if body.get("degraded").and_then(Json::as_bool) == Some(true) {
                    t.degraded += 1;
                    continue;
                }
                let got = ranked(&body);
                if oracle == Oracle::All {
                    if let Err(e) = same_ranking(&got, case, corpus, params) {
                        fail(e);
                    }
                } else if got.len() != K || got.windows(2).any(|w| w[0].1 < w[1].1) {
                    fail(format!(
                        "top-k answer of {} results is not a ranking",
                        got.len()
                    ));
                }
            }
            Step::WhyNot(module, case) => {
                let missing = case.oracle(corpus, params).missing.0 as f64;
                match module {
                    Module::Explain => {
                        let e = body
                            .get("explanations")
                            .and_then(Json::as_array)
                            .and_then(|a| a.first());
                        let rank = e.and_then(|e| e.get("rank")).and_then(Json::as_f64);
                        let id = e.and_then(|e| e.get("id")).and_then(Json::as_f64);
                        if id != Some(missing) || rank != Some((K + 1) as f64) {
                            fail(format!("explain gave id {id:?} rank {rank:?}; oracle: {missing} at rank {}", K + 1));
                        }
                    }
                    _ => {
                        if !ranked(&body).iter().any(|&(id, _)| id as f64 == missing) {
                            fail(format!(
                                "{} refinement results lack the missing object {missing}",
                                module.name()
                            ));
                        }
                    }
                }
            }
            Step::Close => {
                if body.get("closed").and_then(Json::as_bool) != Some(true) {
                    fail("session close found no session".to_owned());
                }
            }
            Step::Insert(_) => match body.get("id").and_then(Json::as_usize) {
                Some(id) => t.inserted.push(id as u32),
                None => fail("insert returned no id".to_owned()),
            },
            Step::Delete(id) => {
                if body.get("deleted").and_then(Json::as_usize) == Some(*id as usize) {
                    t.deleted.push(*id);
                } else {
                    fail(format!("delete of {id} not acknowledged"));
                }
            }
        }
        if let Some(what) = problem {
            t.mismatches.push(format!("job {}: {what}", r.job));
        }
    }
    t
}

/// `(id, score)` pairs of a response's `results` array.
fn ranked(body: &Json) -> Vec<(u32, f64)> {
    body.get("results")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| Some((r.get("id")?.as_usize()? as u32, r.get("score")?.as_f64()?)))
        .collect()
}

fn same_ranking(
    got: &[(u32, f64)],
    case: &Case,
    corpus: &Corpus,
    params: &ScoreParams,
) -> Result<(), String> {
    let want = &case.oracle(corpus, params).top;
    let ids_match = got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.0 == w.id.0);
    let scores_match = got
        .iter()
        .zip(want)
        .all(|(g, w)| (g.1 - w.score).abs() <= 1e-9);
    if ids_match && scores_match {
        Ok(())
    } else {
        Err(format!(
            "top-k ids {:?} differ from the scan oracle's {:?}",
            got.iter().map(|g| g.0).collect::<Vec<_>>(),
            want.iter().map(|w| w.id.0).collect::<Vec<_>>()
        ))
    }
}

/// After a write workload: the live ids must be the seed ids minus the
/// acknowledged deletes plus the acknowledged inserts.
pub fn final_live_set(seed: &Corpus, live: &Corpus, tally: &Tally) -> Result<(), String> {
    let mut expected: BTreeSet<u32> = seed.iter().map(|o| o.id.0).collect();
    for id in &tally.deleted {
        expected.remove(id);
    }
    expected.extend(tally.inserted.iter().copied());
    let actual: BTreeSet<u32> = live.iter().map(|o| o.id.0).collect();
    if expected == actual {
        return Ok(());
    }
    let missing: Vec<_> = expected.difference(&actual).take(5).collect();
    let extra: Vec<_> = actual.difference(&expected).take(5).collect();
    Err(format!(
        "live set has {} ids, expected {}; missing {missing:?}, unexpected {extra:?}",
        actual.len(),
        expected.len()
    ))
}

/// Compares served top-k answers with the scan oracle over the live
/// corpus. `answers` pairs each case with the response body.
pub fn against_live(
    answers: &[(&Case, Vec<u8>)],
    live: &Corpus,
    params: &ScoreParams,
) -> Result<(), String> {
    for (case, body) in answers {
        let body = std::str::from_utf8(body)
            .ok()
            .and_then(|s| Json::parse(s).ok())
            .ok_or("unparsable answer")?;
        let got: Vec<u32> = ranked(&body).iter().map(|g| g.0).collect();
        let want: Vec<u32> = topk_scan(live, params, &case.query)
            .iter()
            .map(|r| r.id.0)
            .collect();
        if got != want {
            return Err(format!(
                "live top-k {got:?} differs from the scan oracle's {want:?}"
            ));
        }
    }
    Ok(())
}
