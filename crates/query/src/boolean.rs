//! Boolean (conjunctive) spatial keyword queries.
//!
//! The spatial keyword querying survey the paper builds on (its reference
//! \[2\]) distinguishes *ranking* queries — Eqn (1), implemented in
//! [`crate::topk`] — from **boolean kNN queries**, where only objects
//! containing *all* query keywords qualify and qualifying objects are
//! ranked by the same score. Both modes matter in practice ("find cafes
//! that definitely have wifi *and* parking, nearest first").
//!
//! The index variants prune conjunctive queries aggressively: a subtree
//! can contain a qualifying object only if every query keyword appears in
//! its union keyword set (`TextStats::max_inter == |q.doc|`), which the
//! SetR/KcR/IR augmentations all expose.

use yask_index::{Augmentation, Corpus, ObjectId, RTree, SpatioTextualObject, TextualBound};
use yask_util::TopK;

use crate::query::Query;
use crate::score::{RankedObject, ScoreParams};
use crate::topk::{topk_tree_with_hook, SearchHook};

/// Exact boolean top-k by scan: filter on containment, rank by `ST`.
pub fn boolean_topk_scan(corpus: &Corpus, params: &ScoreParams, q: &Query) -> Vec<RankedObject> {
    let mut heap: TopK<ObjectId> = TopK::new(q.k);
    for o in corpus.iter() {
        if q.doc.is_subset_of(&o.doc) {
            heap.push(params.score(o, q), o.id);
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|s| RankedObject {
            id: s.item,
            score: s.score.get(),
        })
        .collect()
}

/// The containment hook: a subtree can hold a qualifying object only if
/// every query keyword appears in its union keyword set, and only objects
/// containing every query keyword are scored.
struct Conjunctive;

impl SearchHook for Conjunctive {
    fn admit_node<A: TextualBound>(&self, aug: &A, q: &Query) -> bool {
        aug.text_stats(&q.doc).max_inter >= q.doc.len()
    }

    fn admit_object(&self, o: &SpatioTextualObject, q: &Query) -> bool {
        q.doc.is_subset_of(&o.doc)
    }
}

/// Boolean top-k over any augmented R-tree: subtrees missing any query
/// keyword are pruned outright; qualifying objects stream out best-first.
///
/// Note the result may hold fewer than `k` objects — conjunctive
/// semantics can be unsatisfiable.
pub fn boolean_topk_tree<A: Augmentation + TextualBound>(
    tree: &RTree<A>,
    params: &ScoreParams,
    q: &Query,
) -> Vec<RankedObject> {
    topk_tree_with_hook(tree, params, q, Conjunctive).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Weights;
    use yask_geo::{Point, Space};
    use yask_index::{CorpusBuilder, IrTree, KcRTree, PlainRTree, RTreeParams, SetRTree};
    use yask_text::KeywordSet;
    use yask_util::Xoshiro256;

    fn random_corpus(n: usize, vocab: u32, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let doc = KeywordSet::from_raw(
                (0..1 + rng.below(6)).map(|_| rng.below(vocab as usize) as u32),
            );
            b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
        }
        b.build()
    }

    #[test]
    fn tree_matches_scan_on_random_data() {
        let corpus = random_corpus(500, 12, 61);
        let params = ScoreParams::new(corpus.space());
        let tp = RTreeParams::new(8, 3);
        let tree = SetRTree::bulk_load(corpus.clone(), tp);
        let kcr = KcRTree::bulk_load(corpus.clone(), tp);
        let ir = IrTree::bulk_load(corpus.clone(), tp);
        let plain = PlainRTree::bulk_load(corpus.clone(), tp);
        let ids = |rs: Vec<RankedObject>| rs.iter().map(|r| r.id).collect::<Vec<ObjectId>>();
        let mut rng = Xoshiro256::seed_from_u64(62);
        for _ in 0..30 {
            let doc = KeywordSet::from_raw((0..1 + rng.below(3)).map(|_| rng.below(12) as u32));
            let q = Query::with_weights(
                Point::new(rng.next_f64(), rng.next_f64()),
                doc,
                1 + rng.below(10),
                Weights::from_ws(rng.range_f64(0.1, 0.9)),
            );
            let want = ids(boolean_topk_scan(&corpus, &params, &q));
            for (name, got) in [
                ("setr", boolean_topk_tree(&tree, &params, &q)),
                ("kcr", boolean_topk_tree(&kcr, &params, &q)),
                ("ir", boolean_topk_tree(&ir, &params, &q)),
                ("plain", boolean_topk_tree(&plain, &params, &q)),
            ] {
                assert_eq!(ids(got), want, "{name}: q = {q:?}");
            }
        }
    }

    #[test]
    fn every_result_contains_all_keywords() {
        let corpus = random_corpus(300, 8, 63);
        let params = ScoreParams::new(corpus.space());
        let tree = SetRTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1, 3]), 10);
        for r in boolean_topk_tree(&tree, &params, &q) {
            assert!(q.doc.is_subset_of(&corpus.get(r.id).doc));
        }
    }

    #[test]
    fn unsatisfiable_conjunction_returns_empty() {
        let corpus = random_corpus(100, 5, 64);
        let params = ScoreParams::new(corpus.space());
        let tree = SetRTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        // Keyword 99 exists nowhere.
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1, 99]), 5);
        assert!(boolean_topk_tree(&tree, &params, &q).is_empty());
        assert!(boolean_topk_scan(&corpus, &params, &q).is_empty());
    }

    #[test]
    fn empty_doc_matches_everything() {
        // An empty conjunction is vacuously satisfied: pure spatial kNN.
        let corpus = random_corpus(50, 5, 65);
        let params = ScoreParams::new(corpus.space());
        let tree = SetRTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.2, 0.8), KeywordSet::empty(), 5);
        let got = boolean_topk_tree(&tree, &params, &q);
        assert_eq!(got.len(), 5);
        let want = boolean_topk_scan(&corpus, &params, &q);
        assert_eq!(
            got.iter().map(|r| r.id).collect::<Vec<_>>(),
            want.iter().map(|r| r.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fewer_than_k_matches_are_all_returned() {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        b.push(Point::new(0.1, 0.1), KeywordSet::from_raw([1, 2]), "both");
        b.push(Point::new(0.2, 0.2), KeywordSet::from_raw([1]), "only1");
        b.push(Point::new(0.3, 0.3), KeywordSet::from_raw([2]), "only2");
        let corpus = b.build();
        let params = ScoreParams::new(corpus.space());
        let tree = SetRTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let q = Query::new(Point::new(0.0, 0.0), KeywordSet::from_raw([1, 2]), 10);
        let got = boolean_topk_tree(&tree, &params, &q);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, ObjectId(0));
    }
}
