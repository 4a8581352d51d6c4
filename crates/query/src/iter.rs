//! Incremental best-first enumeration.
//!
//! [`IncrementalSearch`] is the top-k algorithm of §3.3 *without* the `k`
//! cut-off: it yields objects one at a time in exact rank order, paying
//! only for the ranks actually reached instead of scoring the whole
//! database. It runs the same loop as [`crate::topk_tree`], with no
//! best-`k` collector and therefore no `k`-th-score pruning. (The why-not
//! modules compute ranks with [`crate::ranks_of_scan`] and the KcR-tree
//! rank descents instead.)

use yask_index::{Augmentation, ObjectId, RTree, TextualBound};

use crate::query::Query;
use crate::score::{RankedObject, ScoreParams};
use crate::topk::{BestFirst, NoHook};

/// A lazy, rank-ordered stream of query results.
pub struct IncrementalSearch<'t, A: Augmentation> {
    search: BestFirst<'t, A, Query, NoHook>,
    yielded: usize,
}

impl<'t, A: Augmentation + TextualBound> IncrementalSearch<'t, A> {
    /// Starts a search; `q.k` is ignored (the stream is unbounded).
    pub fn new(tree: &'t RTree<A>, params: ScoreParams, query: Query) -> Self {
        IncrementalSearch {
            search: BestFirst::new(tree, params, query, None, NoHook),
            yielded: 0,
        }
    }

    /// Number of objects yielded so far — the rank of the last result.
    pub fn yielded(&self) -> usize {
        self.yielded
    }

    /// Pulls results until `target` surfaces; returns its 1-based rank,
    /// or `None` if the stream ends first (object not indexed).
    pub fn rank_of(&mut self, target: ObjectId) -> Option<usize> {
        self.find(|r| r.id == target).map(|_| self.yielded)
    }
}

impl<A: Augmentation + TextualBound> Iterator for IncrementalSearch<'_, A> {
    type Item = RankedObject;

    fn next(&mut self) -> Option<RankedObject> {
        self.search.next().inspect(|_| self.yielded += 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{rank_of_scan, topk_scan};
    use yask_geo::{Point, Space};
    use yask_index::{Corpus, CorpusBuilder, IrAug, KcAug, NoAug, RTreeParams, SetAug};
    use yask_text::KeywordSet;
    use yask_util::Xoshiro256;

    fn corpus(n: usize, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let doc = KeywordSet::from_raw((0..1 + rng.below(4)).map(|_| rng.below(12) as u32));
            b.push(Point::new(rng.next_f64(), rng.next_f64()), doc, format!("o{i}"));
        }
        b.build()
    }

    #[test]
    fn stream_matches_full_ranking() {
        let c = corpus(120, 1);
        let params = ScoreParams::new(c.space());
        let tree: RTree<SetAug> = RTree::bulk_load(c.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.4, 0.6), KeywordSet::from_raw([1, 3]), 1);
        let streamed: Vec<ObjectId> =
            IncrementalSearch::new(&tree, params, q.clone()).map(|r| r.id).collect();
        assert_eq!(streamed.len(), 120);
        let want: Vec<ObjectId> = topk_scan(&c, &params, &q.with_k(120))
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(streamed, want);
    }

    #[test]
    fn rank_of_matches_scan_oracle() {
        let c = corpus(200, 2);
        let params = ScoreParams::new(c.space());
        let tp = RTreeParams::new(8, 3);
        let tree: RTree<SetAug> = RTree::bulk_load(c.clone(), tp);
        let kcr: RTree<KcAug> = RTree::bulk_load(c.clone(), tp);
        let ir: RTree<IrAug> = RTree::bulk_load(c.clone(), tp);
        let plain: RTree<NoAug> = RTree::bulk_load(c.clone(), tp);
        let q = Query::new(Point::new(0.2, 0.8), KeywordSet::from_raw([2, 5]), 1);
        let mut rng = Xoshiro256::seed_from_u64(9);
        for _ in 0..20 {
            let target = ObjectId(rng.below(200) as u32);
            let want = rank_of_scan(&c, &params, &q, target);
            for (name, got) in [
                ("setr", IncrementalSearch::new(&tree, params, q.clone()).rank_of(target)),
                ("kcr", IncrementalSearch::new(&kcr, params, q.clone()).rank_of(target)),
                ("ir", IncrementalSearch::new(&ir, params, q.clone()).rank_of(target)),
                ("plain", IncrementalSearch::new(&plain, params, q.clone()).rank_of(target)),
            ] {
                assert_eq!(got, Some(want), "{name}: target {target:?}");
            }
        }
    }

    #[test]
    fn rank_of_unindexed_object_is_none() {
        let c = corpus(20, 3);
        let params = ScoreParams::new(c.space());
        // Index only the first 10 objects.
        let ids: Vec<ObjectId> = (0..10).map(ObjectId).collect();
        let tree: RTree<SetAug> =
            RTree::bulk_load_subset(c.clone(), &ids, RTreeParams::new(4, 2));
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1]), 1);
        let mut search = IncrementalSearch::new(&tree, params, q);
        assert_eq!(search.rank_of(ObjectId(15)), None);
        assert_eq!(search.yielded(), 10);
    }

    #[test]
    fn empty_tree_stream_is_empty() {
        let c = corpus(0, 4);
        let params = ScoreParams::new(c.space());
        let tree: RTree<SetAug> = RTree::bulk_load(c, RTreeParams::default());
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1]), 1);
        assert_eq!(IncrementalSearch::new(&tree, params, q).count(), 0);
    }

    #[test]
    fn yielded_counts_progress() {
        let c = corpus(50, 5);
        let params = ScoreParams::new(c.space());
        let tree: RTree<SetAug> = RTree::bulk_load(c, RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.1, 0.1), KeywordSet::from_raw([1]), 1);
        let mut s = IncrementalSearch::new(&tree, params, q);
        assert_eq!(s.yielded(), 0);
        s.next();
        s.next();
        assert_eq!(s.yielded(), 2);
    }
}
