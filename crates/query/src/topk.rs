//! The best-first top-k algorithm of paper §3.3.
//!
//! "To process a spatial keyword top-k query, we maintain a priority queue
//! `Q` that is initialized with the SetR-tree root node. In each iteration
//! of query processing, we pop up the first element in `Q` and report it
//! as a result if it is an object; otherwise, we unfold it and put its
//! children into `Q`. The process continues until `k` objects are
//! retrieved."
//!
//! Nodes are keyed by their score *upper bound* (spatial min-distance +
//! textual bound from the augmentation), objects by their exact score;
//! the first `k` objects popped are exactly the top-k. The algorithm is
//! generic over the augmentation, so the same code runs the SetR-tree,
//! KcR-tree, IR-tree and plain-R-tree engines — only the tightness of the
//! bound (and therefore the number of node expansions) differs, which is
//! what experiment E5 measures.
//!
//! [`topk_tree`], the scatter's per-shard search, boolean top-k and
//! [`crate::IncrementalSearch`] all run the one pop-and-unfold loop below;
//! they differ only in their [`SearchHook`] and in whether `k` applies.

use std::borrow::Borrow;
use std::collections::BinaryHeap;

use yask_index::{
    ArenaReadGuard, Augmentation, NodeId, NodeKind, ObjectId, RTree, SpatioTextualObject,
    TextualBound,
};
use yask_util::{Scored, TopK};

use crate::query::Query;
use crate::score::{RankedObject, ScoreParams};

/// Traversal counters for bound-quality experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Internal/leaf nodes popped and expanded.
    pub nodes_expanded: usize,
    /// Objects whose exact score was computed.
    pub objects_scored: usize,
    /// Total heap pushes (nodes + objects).
    pub heap_pushes: usize,
}

/// Policy plugged into the best-first search; every method defaults to a
/// no-op. Exactness contract: the floor may only prune entries scoring
/// *strictly* below `k` known real object scores, and the admission tests
/// may only reject subtrees and objects that cannot qualify.
pub trait SearchHook {
    /// Entries scoring strictly below the floor are pruned; re-read at every
    /// node pop, internal-node expansion and scored object.
    fn floor(&self) -> f64 {
        f64::NEG_INFINITY
    }

    /// Called after an object enters a full best-`k` collector, with the
    /// collector's `k`-th score: `k` real objects score at least `kth`.
    fn publish(&self, _kth: f64) {}

    /// Asked before each node expansion, given the expansions so far: `true`
    /// stops the search, which then reports a best-effort prefix.
    fn stop(&self, _expanded: usize) -> bool {
        false
    }

    /// Whether the subtree summarised by `aug` can hold a qualifying
    /// object; `false` skips it unexpanded.
    fn admit_node<A: TextualBound>(&self, _aug: &A, _q: &Query) -> bool {
        true
    }

    /// Whether `o` qualifies; checked before it is scored.
    fn admit_object(&self, _o: &SpatioTextualObject, _q: &Query) -> bool {
        true
    }
}

/// The hook that changes nothing: plain best-first search.
pub(crate) struct NoHook;

impl SearchHook for NoHook {}

/// Heap entry: node (by bound) or object (by exact score).
///
/// Derive order puts `Node < Object`; combined with [`Scored`]'s
/// smaller-item-wins tie-break, a node popping at the same key as an
/// object pops *first* — required for correctness, because the node may
/// still contain an equal-scored object with a smaller id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Entry {
    Node(NodeId),
    Object(ObjectId),
}

/// The resumable best-first search: each `next` pops and unfolds until the
/// next object surfaces, in exact rank order. With a best-`k` collector
/// (`seen`) it also skips pushes that cannot enter the top-`k` (an object
/// beaten by `k` seen objects, a node bounded strictly below the `k`-th
/// score); the `k` witnesses stay in the heap or output, so the first `k`
/// objects are unchanged. Without one the stream is unbounded.
pub(crate) struct BestFirst<'t, A: Augmentation, Q, H> {
    tree: &'t RTree<A>,
    /// Pins the arena of a paged tree for the search's whole lifetime —
    /// node references taken in `next` must outlive each heap push.
    _guard: ArenaReadGuard<'t, A>,
    params: ScoreParams,
    query: Q,
    hook: H,
    heap: BinaryHeap<Scored<Entry>>,
    seen: Option<TopK<ObjectId>>,
    stats: TraversalStats,
    stopped: bool,
}

impl<'t, A, Q, H> BestFirst<'t, A, Q, H>
where
    A: Augmentation + TextualBound,
    Q: Borrow<Query>,
    H: SearchHook,
{
    /// Starts a search at the root; `seen` is the best-`k` collector of a
    /// bounded search, `None` for an unbounded stream.
    pub(crate) fn new(
        tree: &'t RTree<A>,
        params: ScoreParams,
        query: Q,
        seen: Option<TopK<ObjectId>>,
        hook: H,
    ) -> Self {
        let mut search = BestFirst {
            tree,
            _guard: tree.read_guard(),
            params,
            query,
            hook,
            heap: BinaryHeap::new(),
            seen,
            stats: TraversalStats::default(),
            stopped: false,
        };
        if let Some(root) = tree.root() {
            search.push_node(root, search.cut());
        }
        search
    }

    /// Entries scoring strictly below this cannot enter the answer: the
    /// larger of the local `k`-th score and the hook's floor.
    fn cut(&self) -> f64 {
        let local = self.seen.as_ref().map_or(f64::NEG_INFINITY, TopK::threshold);
        local.max(self.hook.floor())
    }

    /// Queues node `n` keyed by its score upper bound, unless the hook
    /// rejects it or the bound falls below `cut`.
    fn push_node(&mut self, n: NodeId, cut: f64) {
        let node = self.tree.node(n);
        let q = self.query.borrow();
        if !self.hook.admit_node(node.aug(), q) {
            return;
        }
        let ub = self.params.node_upper(&node.mbr, node.aug(), q);
        if ub >= cut {
            self.stats.heap_pushes += 1;
            self.heap.push(Scored::new(ub, Entry::Node(n)));
        }
    }

    /// Scores object `id` and queues it unless the hook rejects it, it
    /// falls below the floor, or `k` better objects were already seen.
    fn push_object(&mut self, id: ObjectId) {
        let o = self.tree.corpus().get(id);
        let q = self.query.borrow();
        if !self.hook.admit_object(o, q) {
            return;
        }
        let s = self.params.score(o, q);
        self.stats.objects_scored += 1;
        if s < self.hook.floor() {
            return;
        }
        if let Some(seen) = &mut self.seen {
            if !seen.push(s, id) {
                return;
            }
            if seen.is_full() {
                self.hook.publish(seen.threshold());
            }
        }
        self.stats.heap_pushes += 1;
        self.heap.push(Scored::new(s, Entry::Object(id)));
    }
}

impl<A, Q, H> Iterator for BestFirst<'_, A, Q, H>
where
    A: Augmentation + TextualBound,
    Q: Borrow<Query>,
    H: SearchHook,
{
    type Item = RankedObject;

    fn next(&mut self) -> Option<RankedObject> {
        while let Some(top) = self.heap.pop() {
            let score = top.score.get();
            let n = match top.item {
                Entry::Object(id) => return Some(RankedObject { id, score }),
                Entry::Node(n) => n,
            };
            // The bounds may have tightened while the node was queued;
            // re-check before paying for the expansion.
            if score < self.cut() {
                continue;
            }
            if self.hook.stop(self.stats.nodes_expanded) {
                self.stopped = true;
                self.heap.clear();
                return None;
            }
            self.stats.nodes_expanded += 1;
            let tree = self.tree;
            match &tree.node(n).kind {
                NodeKind::Leaf(entries) => entries.iter().for_each(|&id| self.push_object(id)),
                NodeKind::Internal(children) => {
                    let cut = self.cut();
                    children.iter().for_each(|&c| self.push_node(c, cut));
                }
            }
        }
        None
    }
}

/// Runs the best-first top-k search over any augmented R-tree.
pub fn topk_tree<A: Augmentation + TextualBound>(
    tree: &RTree<A>,
    params: &ScoreParams,
    q: &Query,
) -> Vec<RankedObject> {
    topk_tree_with_stats(tree, params, q).0
}

/// [`topk_tree`] with traversal statistics.
pub fn topk_tree_with_stats<A: Augmentation + TextualBound>(
    tree: &RTree<A>,
    params: &ScoreParams,
    q: &Query,
) -> (Vec<RankedObject>, TraversalStats) {
    let (out, stats, _) = topk_tree_with_hook(tree, params, q, NoHook);
    (out, stats)
}

/// [`topk_tree`] under a [`SearchHook`]: the first `q.k` objects of the
/// hooked search, its traversal counters, and `true` when the search ran
/// to completion (`false`: the hook stopped it and the list is a
/// best-effort prefix).
pub fn topk_tree_with_hook<A: Augmentation + TextualBound, H: SearchHook>(
    tree: &RTree<A>,
    params: &ScoreParams,
    q: &Query,
    hook: H,
) -> (Vec<RankedObject>, TraversalStats, bool) {
    let mut search = BestFirst::new(tree, *params, q, Some(TopK::new(q.k)), hook);
    let mut out = Vec::with_capacity(q.k.min(tree.len()));
    out.extend(search.by_ref().take(q.k));
    (out, search.stats, !search.stopped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Weights;
    use crate::scan::topk_scan;
    use yask_geo::{Point, Space};
    use yask_index::{Corpus, CorpusBuilder, IrAug, KcAug, NoAug, RTreeParams, SetAug};
    use yask_text::KeywordSet;
    use yask_util::Xoshiro256;

    fn random_corpus(n: usize, vocab: u32, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let loc = Point::new(rng.next_f64(), rng.next_f64());
            let nk = 1 + rng.below(6);
            let doc = KeywordSet::from_raw((0..nk).map(|_| rng.below(vocab as usize) as u32));
            b.push(loc, doc, format!("o{i}"));
        }
        b.build()
    }

    fn random_query(rng: &mut Xoshiro256, vocab: u32) -> Query {
        let loc = Point::new(rng.next_f64(), rng.next_f64());
        let nk = 1 + rng.below(4);
        let doc = KeywordSet::from_raw((0..nk).map(|_| rng.below(vocab as usize) as u32));
        let k = 1 + rng.below(20);
        let ws = rng.range_f64(0.05, 0.95);
        Query::with_weights(loc, doc, k, Weights::from_ws(ws))
    }

    /// The central correctness battery: every tree variant must agree with
    /// the scan baseline on score *and* order for many random queries.
    #[test]
    fn all_engines_match_scan() {
        let corpus = random_corpus(400, 25, 11);
        let params = ScoreParams::new(corpus.space());
        let tp = RTreeParams::new(8, 3);
        let set: RTree<SetAug> = RTree::bulk_load(corpus.clone(), tp);
        let kc: RTree<KcAug> = RTree::bulk_load(corpus.clone(), tp);
        let ir: RTree<IrAug> = RTree::bulk_load(corpus.clone(), tp);
        let plain: RTree<NoAug> = RTree::bulk_load(corpus.clone(), tp);
        let mut rng = Xoshiro256::seed_from_u64(5);
        for case in 0..40 {
            let q = random_query(&mut rng, 25);
            let want = topk_scan(&corpus, &params, &q);
            for (name, got) in [
                ("setr", topk_tree(&set, &params, &q)),
                ("kcr", topk_tree(&kc, &params, &q)),
                ("ir", topk_tree(&ir, &params, &q)),
                ("plain", topk_tree(&plain, &params, &q)),
            ] {
                assert_eq!(
                    got.iter().map(|r| r.id).collect::<Vec<_>>(),
                    want.iter().map(|r| r.id).collect::<Vec<_>>(),
                    "{name} diverged on case {case} (q = {q:?})"
                );
                for (g, w) in got.iter().zip(&want) {
                    assert!((g.score - w.score).abs() < 1e-9, "{name} score mismatch");
                }
            }
        }
    }

    #[test]
    fn tighter_bounds_expand_fewer_nodes() {
        // SetR/KcR bounds are at least as tight as IR, which is at least
        // as tight as the plain tree — expansion counts must reflect it.
        let corpus = random_corpus(2000, 40, 21);
        let params = ScoreParams::new(corpus.space());
        let tp = RTreeParams::new(16, 6);
        let set: RTree<SetAug> = RTree::bulk_load(corpus.clone(), tp);
        let ir: RTree<IrAug> = RTree::bulk_load(corpus.clone(), tp);
        let plain: RTree<NoAug> = RTree::bulk_load(corpus.clone(), tp);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut set_total = 0usize;
        let mut ir_total = 0usize;
        let mut plain_total = 0usize;
        for _ in 0..20 {
            let q = random_query(&mut rng, 40);
            set_total += topk_tree_with_stats(&set, &params, &q).1.nodes_expanded;
            ir_total += topk_tree_with_stats(&ir, &params, &q).1.nodes_expanded;
            plain_total += topk_tree_with_stats(&plain, &params, &q).1.nodes_expanded;
        }
        assert!(
            set_total <= ir_total,
            "SetR expanded {set_total} > IR {ir_total}"
        );
        assert!(
            ir_total <= plain_total,
            "IR expanded {ir_total} > plain {plain_total}"
        );
    }

    #[test]
    fn empty_tree_returns_empty() {
        let corpus = random_corpus(0, 5, 1);
        let params = ScoreParams::new(corpus.space());
        let t: RTree<SetAug> = RTree::bulk_load(corpus, RTreeParams::default());
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1]), 5);
        let (res, stats) = topk_tree_with_stats(&t, &params, &q);
        assert!(res.is_empty());
        assert_eq!(stats.nodes_expanded, 0);
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let corpus = random_corpus(10, 5, 2);
        let params = ScoreParams::new(corpus.space());
        let t: RTree<SetAug> = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1]), 50);
        let res = topk_tree(&t, &params, &q);
        assert_eq!(res.len(), 10);
        let scan = topk_scan(&corpus, &params, &q);
        assert_eq!(
            res.iter().map(|r| r.id).collect::<Vec<_>>(),
            scan.iter().map(|r| r.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_query_doc_ranks_by_distance_only() {
        let corpus = random_corpus(100, 10, 4);
        let params = ScoreParams::new(corpus.space());
        let t: RTree<SetAug> = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::empty(), 5);
        let res = topk_tree(&t, &params, &q);
        let scan = topk_scan(&corpus, &params, &q);
        assert_eq!(
            res.iter().map(|r| r.id).collect::<Vec<_>>(),
            scan.iter().map(|r| r.id).collect::<Vec<_>>()
        );
        // Nearest by distance must come first.
        let nearest = t.nearest(&q.loc, 1)[0].1;
        assert_eq!(res[0].id, nearest);
    }

    #[test]
    fn works_on_insertion_built_tree() {
        let corpus = random_corpus(150, 15, 6);
        let params = ScoreParams::new(corpus.space());
        let t: RTree<SetAug> = RTree::build_by_insertion(corpus.clone(), RTreeParams::new(6, 2));
        t.validate().unwrap();
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..10 {
            let q = random_query(&mut rng, 15);
            let got: Vec<ObjectId> = topk_tree(&t, &params, &q).iter().map(|r| r.id).collect();
            let want: Vec<ObjectId> =
                topk_scan(&corpus, &params, &q).iter().map(|r| r.id).collect();
            assert_eq!(got, want);
        }
    }
}
