//! The spatial keyword top-k query engine of YASK (paper §2.1, §3.3).
//!
//! A spatial keyword top-k query `q = (loc, doc, k, ~w)` retrieves the `k`
//! objects maximizing
//!
//! ```text
//! ST(o, q) = ws · (1 − SDist(o, q)) + wt · TSim(o, q)        (Eqn 1)
//! ```
//!
//! with `SDist` the normalized Euclidean distance and `TSim` the Jaccard
//! similarity (Eqn 2) by default. This crate provides:
//!
//! * [`Query`] / [`Weights`] — query parameters with the paper's
//!   `ws + wt = 1` invariant,
//! * [`ScoreParams`] — the scoring function plus node-level upper/lower
//!   bounds for any augmented R-tree,
//! * [`topk`] — the best-first priority-queue algorithm of §3.3, generic
//!   over the index variant, with traversal statistics; its one
//!   pop-and-unfold loop also runs the scatter's per-shard search, boolean
//!   top-k and the incremental stream through a [`SearchHook`],
//! * [`scan`] — the exact linear-scan baseline and rank oracles (the
//!   why-not modules rank missing objects with [`ranks_of_scan`]),
//! * [`iter`] — incremental best-first enumeration: objects stream out in
//!   rank order without fixing `k` in advance.
//!
//! Ranking is a *total* order: score descending, object id ascending on
//! ties. Every algorithm in the workspace (and every test comparing them)
//! uses this same order, which is what makes the why-not modules' rank
//! arithmetic exact.

pub mod boolean;
pub mod iter;
pub mod query;
pub mod range;
pub mod scan;
pub mod score;
pub mod topk;

pub use boolean::{boolean_topk_scan, boolean_topk_tree};
pub use iter::IncrementalSearch;
pub use query::{Query, Weights};
pub use range::{range_keyword_scan, range_keyword_tree, MatchMode};
pub use scan::{rank_of_scan, ranks_of_scan, topk_scan};
pub use score::{RankedObject, ScoreParams};
pub use topk::{topk_tree, topk_tree_with_hook, topk_tree_with_stats, SearchHook, TraversalStats};
