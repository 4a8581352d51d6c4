//! Tight request deadlines on the why-not refinements, over HTTP, at
//! every shard count: the refinement cancels with `504 Gateway Timeout`
//! instead of failing its edge worker, and the server keeps answering.

use std::sync::Arc;

use yask_data::{SpatialDistribution, SynthConfig};
use yask_exec::ExecConfig;
use yask_geo::Point;
use yask_index::Corpus;
use yask_query::{topk_scan, Query, ScoreParams};
use yask_server::{
    http_post, http_post_with_headers, HttpServer, Json, ServiceConfig, YaskService,
};
use yask_text::{KeywordSet, Vocabulary};

const N: usize = 20_000;
const WORDS: usize = 12;

/// `N` uniform objects over a 12-word vocabulary `w0..w11`, interned in
/// id order so keyword id `i` is the word `w{i}`.
fn corpus_and_vocab() -> (Corpus, Vocabulary) {
    let corpus = SynthConfig {
        n: N,
        vocab: WORDS,
        min_doc: 1,
        max_doc: 4,
        zipf_s: 0.0,
        spatial: SpatialDistribution::Uniform,
        seed: 68,
    }
    .build();
    let mut vocab = Vocabulary::new();
    for w in 0..WORDS {
        vocab.intern(&format!("w{w}"));
    }
    (corpus, vocab)
}

#[test]
fn tight_refinement_deadlines_answer_504_at_every_shard_count() {
    let (corpus, vocab) = corpus_and_vocab();
    let (x, y) = (0.5, 0.5);
    let query = Query::new(Point::new(x, y), KeywordSet::from_raw([1u32, 2]), 5);
    // An object from the middle of the ranking: every candidate's exact
    // rank count is expensive, so a few milliseconds cannot cover it.
    let ranked = topk_scan(&corpus, &ScoreParams::new(corpus.space()), &query.with_k(N));
    let missing = ranked[N / 2].id;
    let query_body = Json::obj([
        ("x", Json::Num(x)),
        ("y", Json::Num(y)),
        (
            "keywords",
            Json::Arr(vec![Json::str("w1"), Json::str("w2")]),
        ),
        ("k", Json::Num(query.k as f64)),
    ]);

    for shards in [1, 2, 4] {
        let service = Arc::new(YaskService::with_config(
            corpus.clone(),
            vocab.clone(),
            ServiceConfig {
                exec: ExecConfig {
                    shards,
                    ..ExecConfig::default()
                },
                ..ServiceConfig::default()
            },
        ));
        let mut server = HttpServer::spawn(0, 4, service.into_handler()).unwrap();
        let addr = server.addr();

        let (status, reply) = http_post(addr, "/query", &query_body).unwrap();
        assert_eq!(status, 200, "shards={shards}: {reply}");
        let session = reply.get("session").unwrap().as_f64().unwrap();
        let whynot = Json::obj([
            ("session", Json::Num(session)),
            ("missing", Json::Arr(vec![Json::Num(missing.0 as f64)])),
            ("lambda", Json::Num(0.5)),
        ]);
        for route in ["/whynot/keywords", "/whynot/combined"] {
            for _ in 0..2 {
                let reply =
                    http_post_with_headers(addr, route, &whynot, &[("x-yask-deadline-ms", "3")])
                        .unwrap();
                assert_eq!(
                    reply.status, 504,
                    "shards={shards} {route}: {:?}",
                    reply.body
                );
            }
        }
        let (status, reply) = http_post(addr, "/query", &query_body).unwrap();
        assert_eq!(
            status, 200,
            "shards={shards}: the server must keep answering: {reply}"
        );
        server.shutdown();
    }
}
