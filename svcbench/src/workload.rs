//! The four workloads: what each sends, at what rate, and the seeded
//! generator that turns a seed into a byte-identical request stream.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use yask_geo::Point;
use yask_index::{Corpus, ObjectId};
use yask_query::{topk_scan, Query, RankedObject, ScoreParams};
use yask_text::{KeywordSet, Vocabulary};
use yask_util::{Xoshiro256, Zipf};

use crate::client::render;

/// Objects in the corpus (the `std_corpus` recipe).
pub const N_OBJECTS: usize = 50_000;
/// Keywords in the corpus recipe's vocabulary.
pub const VOCAB: usize = 5_000;
/// Result size of every top-k query.
pub const K: usize = 10;
/// Hot-spot groups in the hot query pool, and queries per group. Each
/// group sits around its own corpus object; many groups keep one seed's
/// mix of dense and sparse areas close to another's.
pub const HOT_GROUPS: usize = 64;
pub const HOT_GROUP_SIZE: usize = 12;
/// Queries carry 1 to this many keywords, in equal shares: the count
/// cycles rather than being drawn, so every seed has the same mix.
const MAX_WORDS: usize = 4;
/// Share of hot-pool reads that go to the current hot group.
const HOT_SHARE: f64 = 0.8;
/// One `topk_write` job in this many is a write (5 %).
const WRITE_EVERY: u32 = 20;
/// Checkpoint threshold of `topk_write`, in write batches.
pub const WRITE_CHECKPOINT_BATCHES: u64 = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TopkCold,
    TopkHot,
    WhynotSession,
    TopkWrite,
}

/// Route classes latency is reported for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    TopK,
    WhyNot,
    Write,
    Close,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::TopK, Class::WhyNot, Class::Write, Class::Close];

    pub fn name(self) -> &'static str {
        match self {
            Class::TopK => "topk",
            Class::WhyNot => "whynot",
            Class::Write => "write",
            Class::Close => "close",
        }
    }
}

/// The why-not modules, in the fixed order sessions cycle through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Module {
    Explain,
    Preference,
    Keywords,
    Combined,
}

impl Module {
    pub const ALL: [Module; 4] = [
        Module::Explain,
        Module::Preference,
        Module::Keywords,
        Module::Combined,
    ];

    pub fn path(self) -> &'static str {
        match self {
            Module::Explain => "/whynot/explain",
            Module::Preference => "/whynot/preference",
            Module::Keywords => "/whynot/keywords",
            Module::Combined => "/whynot/combined",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Module::Explain => "explain",
            Module::Preference => "preference",
            Module::Keywords => "keywords",
            Module::Combined => "combined",
        }
    }

    /// The span the executor opens around the module's computation.
    pub fn span(self) -> &'static str {
        match self {
            Module::Explain => "whynot_explain",
            Module::Preference => "whynot_preference",
            Module::Keywords => "whynot_keyword",
            Module::Combined => "whynot_combined",
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TopkCold,
        Workload::TopkHot,
        Workload::WhynotSession,
        Workload::TopkWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TopkCold => "topk_cold",
            Workload::TopkHot => "topk_hot",
            Workload::WhynotSession => "whynot_session",
            Workload::TopkWrite => "topk_write",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered jobs per second in the timed phase. A job is one request,
    /// or one `/query` → why-not → `/session/close` session.
    pub fn rate(self) -> f64 {
        match self {
            Workload::TopkCold => 40.0,
            Workload::TopkHot => 200.0,
            Workload::WhynotSession => 10.0,
            Workload::TopkWrite => 120.0,
        }
    }

    /// The latency limit a class's p99 should hold at the offered rate;
    /// the report flags a tail over it. In a why-not session the query
    /// and the close wait behind why-not work on the same cores, so the
    /// session's limits are looser.
    pub fn limit_ms(self, class: Class) -> f64 {
        match (self, class) {
            (_, Class::WhyNot) => 500.0,
            (Workload::WhynotSession, _) => 200.0,
            (_, Class::Write) => 100.0,
            (_, Class::TopK | Class::Close) => 50.0,
        }
    }

    /// Whether reads come from the hot, cache-sized query pool.
    fn hot(self) -> bool {
        matches!(self, Workload::TopkHot | Workload::TopkWrite)
    }

    /// Whether top-k answers can be checked against the seed corpus
    /// (writes move the corpus, so `topk_write` is checked at the end).
    pub fn static_corpus(self) -> bool {
        self != Workload::TopkWrite
    }
}

/// The generated words the corpus's keyword ids are exposed as: three
/// syllables, unique per id.
pub fn word(id: u32) -> String {
    const SYL: [&str; 20] = [
        "ka", "lo", "mi", "nu", "pe", "ra", "si", "to", "vu", "za", "be", "do", "fi", "go", "hu",
        "ja", "ke", "li", "mo", "ne",
    ];
    let i = id as usize;
    format!("{}{}{}", SYL[i / 400 % 20], SYL[i / 20 % 20], SYL[i % 20])
}

pub fn vocabulary() -> Vocabulary {
    Vocabulary::from_words((0..VOCAB as u32).map(word))
}

/// A top-k query with its rendered body and (lazily) its scan oracle.
pub struct Case {
    pub query: Query,
    body: String,
    oracle: OnceLock<Oracle>,
}

/// The scan oracle's answer: the top k, and the object ranked just past
/// them, which sessions ask why-not about.
pub struct Oracle {
    pub top: Vec<RankedObject>,
    pub missing: ObjectId,
}

impl Case {
    fn new(loc: Point, words: Vec<u32>) -> Case {
        let doc = KeywordSet::from_raw(words);
        let rendered: Vec<String> = doc
            .raw()
            .iter()
            .map(|&w| format!("\"{}\"", word(w)))
            .collect();
        let body = format!(
            "{{\"x\":{},\"y\":{},\"keywords\":[{}],\"k\":{K}}}",
            loc.x,
            loc.y,
            rendered.join(",")
        );
        Case {
            query: Query::new(loc, doc, K),
            body,
            oracle: OnceLock::new(),
        }
    }

    /// The scan oracle over the seed corpus; computed once.
    pub fn oracle(&self, corpus: &Corpus, params: &ScoreParams) -> &Oracle {
        self.oracle.get_or_init(|| {
            let mut ranked = topk_scan(corpus, params, &self.query.with_k(K + 1));
            let missing = ranked.pop().expect("corpus larger than k").id;
            Oracle {
                top: ranked,
                missing,
            }
        })
    }
}

/// A new object for `POST /objects`.
pub struct NewObject {
    body: String,
}

/// One request of a job.
#[derive(Clone)]
pub enum Step {
    Query(Arc<Case>),
    WhyNot(Module, Arc<Case>),
    Close,
    Insert(Arc<NewObject>),
    Delete(u32),
}

impl Step {
    pub fn class(&self) -> Class {
        match self {
            Step::Query(_) => Class::TopK,
            Step::WhyNot(..) => Class::WhyNot,
            Step::Close => Class::Close,
            Step::Insert(_) | Step::Delete(_) => Class::Write,
        }
    }

    /// The request bytes. `session` is the id the job's `/query` step
    /// returned; `traced` asks the program for its span tree and tags
    /// the request with `id` for the benchmark's handler wrapper.
    pub fn render(
        &self,
        corpus: &Corpus,
        params: &ScoreParams,
        session: u64,
        traced: Option<u64>,
    ) -> Vec<u8> {
        let (qs, header) = match traced {
            Some(id) => ("?trace=1", format!("x-bench-id: {id}\r\n")),
            None => ("", String::new()),
        };
        match self {
            Step::Query(case) => render("POST", &format!("/query{qs}"), &case.body, &header),
            Step::WhyNot(module, case) => {
                let missing = case.oracle(corpus, params).missing.0;
                let body = format!("{{\"session\":{session},\"missing\":[{missing}]}}");
                render("POST", &format!("{}{qs}", module.path()), &body, &header)
            }
            Step::Close => render(
                "POST",
                "/session/close",
                &format!("{{\"session\":{session}}}"),
                &header,
            ),
            Step::Insert(obj) => render("POST", "/objects", &obj.body, &header),
            Step::Delete(id) => render("DELETE", &format!("/objects/{id}"), "", &header),
        }
    }
}

/// A job due `at` seconds into its phase, run on one connection.
#[derive(Clone)]
pub struct Job {
    pub index: u32,
    pub at: f64,
    pub steps: Vec<Step>,
}

/// Jobs per generator thread.
pub type Plan = Vec<Vec<Job>>;

/// The seeded request generator of one workload.
pub struct Gen {
    workload: Workload,
    corpus: Corpus,
    rng: Xoshiro256,
    seed: u64,
    streams: u64,
    jobs: u32,
    hot_pool: Vec<Arc<Case>>,
    group_zipf: Zipf,
    pool_zipf: Zipf,
    cold: usize,
    writes: usize,
    inserts: usize,
    deleted: HashSet<u32>,
}

impl Gen {
    pub fn new(workload: Workload, corpus: &Corpus, seed: u64) -> Gen {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5eed_5eed_5eed_5eed);
        let mut hot_pool = Vec::with_capacity(HOT_GROUPS * HOT_GROUP_SIZE);
        if workload.hot() {
            for _ in 0..HOT_GROUPS {
                let anchor = random_object(corpus, &mut rng).loc;
                for i in 0..HOT_GROUP_SIZE {
                    let loc = jitter(anchor, 0.01, &mut rng);
                    let words = random_words(corpus, &mut rng, 1 + i % MAX_WORDS);
                    hot_pool.push(Arc::new(Case::new(loc, words)));
                }
            }
        }
        Gen {
            workload,
            corpus: corpus.clone(),
            rng,
            seed,
            streams: 0,
            jobs: 0,
            hot_pool,
            group_zipf: Zipf::new(HOT_GROUP_SIZE, 1.0),
            pool_zipf: Zipf::new(HOT_GROUPS * HOT_GROUP_SIZE, 1.0),
            cold: 0,
            writes: 0,
            inserts: 0,
            deleted: HashSet::new(),
        }
    }

    pub fn hot_pool(&self) -> &[Arc<Case>] {
        &self.hot_pool
    }

    /// A fresh cold query: location and keywords drawn from corpus
    /// objects, so common and rare terms both occur. Sessions cycle the
    /// why-not module fastest, so every module sees every keyword count.
    fn cold_case(&mut self) -> Arc<Case> {
        let words = match self.workload {
            Workload::WhynotSession => 1 + self.cold / Module::ALL.len() % MAX_WORDS,
            _ => 1 + self.cold % MAX_WORDS,
        };
        self.cold += 1;
        let loc = jitter(
            random_object(&self.corpus, &mut self.rng).loc,
            0.002,
            &mut self.rng,
        );
        Arc::new(Case::new(
            loc,
            random_words(&self.corpus, &mut self.rng, words),
        ))
    }

    /// A read from the hot pool; the hot group drifts with `phase`, the
    /// job's position in its phase (0..1).
    fn hot_case(&mut self, phase: f64) -> Arc<Case> {
        let group = ((phase * HOT_GROUPS as f64) as usize).min(HOT_GROUPS - 1);
        let i = if self.rng.chance(HOT_SHARE) {
            group * HOT_GROUP_SIZE + self.group_zipf.sample(&mut self.rng)
        } else {
            // Pool ranks are spread over the groups, so the cold share
            // is not itself concentrated in one group.
            let r = self.pool_zipf.sample(&mut self.rng);
            (r % HOT_GROUPS) * HOT_GROUP_SIZE + r / HOT_GROUPS
        };
        Arc::clone(&self.hot_pool[i])
    }

    fn write_step(&mut self) -> Step {
        self.writes += 1;
        if self.writes % 2 == 1 {
            self.inserts += 1;
            let loc = jitter(
                random_object(&self.corpus, &mut self.rng).loc,
                0.002,
                &mut self.rng,
            );
            let words: Vec<String> =
                random_words(&self.corpus, &mut self.rng, 1 + self.inserts % MAX_WORDS)
                    .iter()
                    .map(|&w| format!("\"{}\"", word(w)))
                    .collect();
            let body = format!(
                "{{\"x\":{},\"y\":{},\"name\":\"ins-{}-{}\",\"keywords\":[{}]}}",
                loc.x,
                loc.y,
                self.seed,
                self.inserts,
                words.join(",")
            );
            Step::Insert(Arc::new(NewObject { body }))
        } else {
            // Deletes hit distinct seed objects, so each is live when sent
            // and inserts balance them: n stays flat.
            loop {
                let id = self.rng.below(self.corpus.slot_count()) as u32;
                if self.deleted.insert(id) {
                    return Step::Delete(id);
                }
            }
        }
    }

    /// The steps of the next job.
    fn next_steps(&mut self, phase: f64) -> Vec<Step> {
        match self.workload {
            Workload::TopkCold => vec![Step::Query(self.cold_case())],
            Workload::TopkHot => vec![Step::Query(self.hot_case(phase))],
            Workload::WhynotSession => {
                let module = Module::ALL[self.cold % Module::ALL.len()];
                let case = self.cold_case();
                vec![
                    Step::Query(Arc::clone(&case)),
                    Step::WhyNot(module, case),
                    Step::Close,
                ]
            }
            Workload::TopkWrite => {
                if self.jobs % WRITE_EVERY == WRITE_EVERY - 1 {
                    vec![self.write_step()]
                } else {
                    vec![Step::Query(self.hot_case(phase))]
                }
            }
        }
    }

    fn job(&mut self, at: f64, phase: f64) -> Job {
        let steps = self.next_steps(phase);
        let index = self.jobs;
        self.jobs += 1;
        Job { index, at, steps }
    }

    /// An open-loop plan of `rate × seconds` jobs: each of `threads`
    /// connections gets its share at seeded uniform times, the arrivals
    /// of a Poisson process with its count fixed, so every seed offers
    /// the same load. Job contents are drawn in merged arrival order.
    pub fn open_plan(&mut self, rate: f64, seconds: f64, threads: usize) -> Plan {
        let per_thread = (rate * seconds / threads as f64).round() as usize;
        let mut arrivals: Vec<(f64, usize)> = Vec::new();
        for t in 0..threads {
            self.streams += 1;
            let mut rng = Xoshiro256::seed_from_u64(
                self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.streams,
            );
            arrivals.extend((0..per_thread).map(|_| (rng.next_f64() * seconds, t)));
        }
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut plan: Plan = vec![Vec::new(); threads];
        for (at, t) in arrivals {
            let job = self.job(at, at / seconds);
            plan[t].push(job);
        }
        plan
    }

    /// Untimed jobs that bring the service to its steady state: every
    /// hot-pool query once, or a few jobs of the workload's own kind
    /// (reads only).
    pub fn warmup_plan(&mut self, threads: usize) -> Plan {
        let steps: Vec<Vec<Step>> = match self.workload {
            Workload::TopkHot => self
                .hot_pool
                .iter()
                .map(|c| vec![Step::Query(Arc::clone(c))])
                .collect(),
            Workload::TopkWrite => (0..32)
                .map(|i| vec![Step::Query(self.hot_case(i as f64 / 32.0))])
                .collect(),
            Workload::TopkCold => (0..32)
                .map(|_| vec![Step::Query(self.cold_case())])
                .collect(),
            Workload::WhynotSession => (0..8).map(|_| self.next_steps(0.0)).collect(),
        };
        let mut plan: Plan = vec![Vec::new(); threads];
        for (i, steps) in steps.into_iter().enumerate() {
            let index = self.jobs;
            self.jobs += 1;
            plan[i % threads].push(Job {
                index,
                at: 0.0,
                steps,
            });
        }
        plan
    }
}

fn random_object<'c>(
    corpus: &'c Corpus,
    rng: &mut Xoshiro256,
) -> &'c yask_index::SpatioTextualObject {
    corpus.get(ObjectId(rng.below(corpus.slot_count()) as u32))
}

fn jitter(p: Point, sigma: f64, rng: &mut Xoshiro256) -> Point {
    Point::new(
        rng.normal(p.x, sigma).clamp(0.0, 1.0),
        rng.normal(p.y, sigma).clamp(0.0, 1.0),
    )
}

/// `n` distinct keywords, each from a random object's document.
fn random_words(corpus: &Corpus, rng: &mut Xoshiro256, n: usize) -> Vec<u32> {
    let mut words = Vec::with_capacity(n);
    while words.len() < n {
        let doc = random_object(corpus, rng).doc.raw();
        let w = doc[rng.below(doc.len())];
        if !words.contains(&w) {
            words.push(w);
        }
    }
    words
}

/// Computes the scan oracle of every case on `threads` threads.
pub fn prepare(cases: &[Arc<Case>], corpus: &Corpus, params: &ScoreParams, threads: usize) {
    let chunk = cases.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for part in cases.chunks(chunk) {
            s.spawn(move || {
                for case in part {
                    case.oracle(corpus, params);
                }
            });
        }
    });
}

/// The distinct query cases a plan's jobs reference.
pub fn cases_of(plan: &Plan) -> Vec<Arc<Case>> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for job in plan.iter().flatten() {
        for step in &job.steps {
            if let Step::Query(c) | Step::WhyNot(_, c) = step {
                if seen.insert(Arc::as_ptr(c)) {
                    out.push(Arc::clone(c));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(w: Workload, seed: u64, corpus: &Corpus, params: &ScoreParams) -> Vec<u8> {
        let mut g = Gen::new(w, corpus, seed);
        let mut out = Vec::new();
        let plans = [g.warmup_plan(2), g.open_plan(w.rate(), 2.0, 2)];
        for plan in &plans {
            for (t, jobs) in plan.iter().enumerate() {
                for job in jobs {
                    out.extend_from_slice(format!("{t} {} {:.9}\n", job.index, job.at).as_bytes());
                    for step in &job.steps {
                        out.extend(step.render(corpus, params, 7, Some(job.index as u64)));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_request_streams() {
        let corpus = yask_bench::std_corpus(2_000);
        let params = ScoreParams::new(corpus.space());
        for w in Workload::ALL {
            let a = stream_bytes(w, 11, &corpus, &params);
            assert!(!a.is_empty());
            assert_eq!(a, stream_bytes(w, 11, &corpus, &params), "{}", w.name());
            assert_ne!(a, stream_bytes(w, 12, &corpus, &params), "{}", w.name());
        }
    }

    #[test]
    fn words_are_unique_and_round_trip_through_the_vocabulary() {
        let v = vocabulary();
        assert_eq!(v.len(), VOCAB);
        for id in [0u32, 19, 20, 399, 400, 4999] {
            assert_eq!(v.lookup(&word(id)).map(|k| k.0), Some(id));
        }
    }

    #[test]
    fn missing_object_is_the_one_pick_missing_names() {
        let corpus = yask_bench::std_corpus(2_000);
        let params = ScoreParams::new(corpus.space());
        let mut g = Gen::new(Workload::WhynotSession, &corpus, 3);
        for case in cases_of(&g.open_plan(50.0, 0.5, 2)) {
            let oracle = case.oracle(&corpus, &params);
            assert_eq!(oracle.top, topk_scan(&corpus, &params, &case.query));
            assert_eq!(
                vec![oracle.missing],
                yask_data::pick_missing(&corpus, &params, &case.query, 1, 0)
            );
        }
    }

    #[test]
    fn poisson_plan_offers_the_requested_rate() {
        let corpus = yask_bench::std_corpus(2_000);
        let mut g = Gen::new(Workload::TopkCold, &corpus, 5);
        let plan = g.open_plan(200.0, 10.0, 2);
        let jobs: usize = plan.iter().map(Vec::len).sum();
        assert_eq!(jobs, 2000);
        for jobs in &plan {
            assert!(jobs.windows(2).all(|w| w[0].at <= w[1].at));
        }
    }

    #[test]
    fn writes_balance_inserts_and_deletes_distinct_objects() {
        let corpus = yask_bench::std_corpus(2_000);
        let mut g = Gen::new(Workload::TopkWrite, &corpus, 9);
        let plan = g.open_plan(400.0, 5.0, 2);
        let (mut ins, mut del) = (0, HashSet::new());
        for step in plan.iter().flatten().flat_map(|j| &j.steps) {
            match step {
                Step::Insert(_) => ins += 1,
                Step::Delete(id) => assert!(del.insert(*id)),
                _ => {}
            }
        }
        assert_eq!(ins + del.len(), 100);
        assert!((ins as i64 - del.len() as i64).abs() <= 1);
    }
}
