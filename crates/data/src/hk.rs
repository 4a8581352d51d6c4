//! The 539-hotel Hong Kong stand-in dataset.
//!
//! Fully deterministic: [`hk_hotels`] always produces the same corpus, so
//! examples, tests and benches all reference identical data.
//! Construction: each hotel is assigned to a district by weight, scattered
//! around its centre with a Gaussian, given a combinatorial name tagged
//! with the district, and assigned 6–14 keywords — a Zipf-skewed draw from
//! the global facility vocabulary plus a district flavour term, which
//! gives neighbouring hotels the overlapping-but-distinct vocabularies the
//! keyword-adaptation module needs to be interesting.

use yask_geo::Point;
use yask_index::{Corpus, CorpusBuilder};
use yask_text::{KeywordSet, Vocabulary};
use yask_util::{Xoshiro256, Zipf};

use crate::vocabularies::{HK_DISTRICTS, HOTEL_KEYWORDS, NAME_PREFIXES, NAME_SUFFIXES};

/// Number of hotels, matching the paper's "some 539 hotels".
pub const HK_HOTEL_COUNT: usize = 539;

/// The fixed generation seed.
pub const HK_SEED: u64 = 0x59_41_53_4B; // "YASK"

/// District flavour keywords appended to the global vocabulary; hotels of
/// district `i` draw their flavour term from index `i`.
const DISTRICT_FLAVOURS: &[&str] = &[
    "promenade", "finance", "fashion", "streetfood", "exhibition2", "jade2", "quayside",
    "antiques", "stadium",
];

/// Builds the deterministic 539-hotel corpus and its vocabulary.
///
/// ```
/// let (corpus, vocab) = yask_data::hk_hotels();
/// assert_eq!(corpus.len(), 539);
/// assert!(vocab.lookup("harbour").is_some());
/// ```
pub fn hk_hotels() -> (Corpus, Vocabulary) {
    let mut vocab = Vocabulary::from_words(HOTEL_KEYWORDS.iter().copied());
    for flavour in DISTRICT_FLAVOURS {
        vocab.intern(flavour);
    }

    let mut rng = Xoshiro256::seed_from_u64(HK_SEED);
    let zipf = Zipf::new(HOTEL_KEYWORDS.len(), 0.9);

    // Deterministic district assignment proportional to weights.
    let mut counts: Vec<usize> = HK_DISTRICTS
        .iter()
        .map(|d| (d.weight * HK_HOTEL_COUNT as f64).floor() as usize)
        .collect();
    let mut assigned: usize = counts.iter().sum();
    let n_districts = counts.len();
    let mut i = 0;
    while assigned < HK_HOTEL_COUNT {
        counts[i % n_districts] += 1;
        assigned += 1;
        i += 1;
    }

    let mut builder = CorpusBuilder::with_capacity(HK_HOTEL_COUNT);
    let mut used_names = std::collections::HashSet::new();
    for (d_idx, district) in HK_DISTRICTS.iter().enumerate() {
        for _ in 0..counts[d_idx] {
            let lon = rng.normal(district.lon, district.sigma);
            let lat = rng.normal(district.lat, district.sigma);

            // 6–14 keywords: Zipf draws + the district flavour term.
            let n_kw = 6 + rng.below(9);
            let mut ids = Vec::with_capacity(n_kw + 1);
            for _ in 0..n_kw {
                let rank = zipf.sample(&mut rng);
                ids.push(
                    vocab
                        .lookup(HOTEL_KEYWORDS[rank])
                        .expect("vocabulary pre-filled"),
                );
            }
            if rng.chance(0.6) {
                ids.push(
                    vocab
                        .lookup(DISTRICT_FLAVOURS[d_idx])
                        .expect("flavour interned"),
                );
            }
            let doc = KeywordSet::from_ids(ids);

            // Distinct combinatorial name, suffixed on collision.
            let mut name = format!(
                "{} {} ({})",
                NAME_PREFIXES[rng.below(NAME_PREFIXES.len())],
                NAME_SUFFIXES[rng.below(NAME_SUFFIXES.len())],
                district.name
            );
            let mut suffix = 2;
            while !used_names.insert(name.clone()) {
                name = format!("{} #{}", name.trim_end_matches(|c: char| c == '#' || c.is_ascii_digit() || c == ' '), suffix);
                suffix += 1;
            }
            builder.push(Point::new(lon, lat), doc, name);
        }
    }
    (builder.build(), vocab)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_exactly_539_hotels() {
        let (corpus, _) = hk_hotels();
        assert_eq!(corpus.len(), HK_HOTEL_COUNT);
    }

    #[test]
    fn is_deterministic() {
        let (a, _) = hk_hotels();
        let (b, _) = hk_hotels();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.loc, y.loc);
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.name, y.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let (corpus, _) = hk_hotels();
        let names: std::collections::HashSet<&str> =
            corpus.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names.len(), corpus.len());
    }

    #[test]
    fn locations_are_in_hong_kong() {
        let (corpus, _) = hk_hotels();
        for o in corpus.iter() {
            assert!((114.0..114.4).contains(&o.loc.x), "{}: {:?}", o.name, o.loc);
            assert!((22.1..22.5).contains(&o.loc.y), "{}: {:?}", o.name, o.loc);
        }
    }

    #[test]
    fn keyword_sets_are_plausible() {
        let (corpus, vocab) = hk_hotels();
        let mut total = 0usize;
        for o in corpus.iter() {
            assert!(!o.doc.is_empty(), "{} has no keywords", o.name);
            assert!(o.doc.len() <= 15, "{} has {} keywords", o.name, o.doc.len());
            total += o.doc.len();
            for id in o.doc.iter() {
                // Every id resolves in the vocabulary.
                let _ = vocab.resolve(id);
            }
        }
        let avg = total as f64 / corpus.len() as f64;
        assert!((5.0..12.0).contains(&avg), "avg doc len {avg}");
    }

    #[test]
    fn common_keywords_are_frequent() {
        // Zipf skew: "wifi" (rank 0) must appear in far more hotels than a
        // tail keyword.
        let (corpus, vocab) = hk_hotels();
        let wifi = vocab.lookup("wifi").unwrap();
        let opera = vocab.lookup("opera").unwrap();
        let wifi_n = corpus.iter().filter(|o| o.doc.contains(wifi)).count();
        let opera_n = corpus.iter().filter(|o| o.doc.contains(opera)).count();
        assert!(wifi_n > 5 * opera_n.max(1), "wifi {wifi_n} vs opera {opera_n}");
        assert!(wifi_n > 200, "wifi in only {wifi_n} hotels");
    }

    #[test]
    fn spatially_clustered_by_district() {
        // The corpus bounding box is city-sized, but hotels concentrate:
        // a district-sized box around TST must hold far more than a
        // uniform share.
        let (corpus, _) = hk_hotels();
        let tst = corpus
            .iter()
            .filter(|o| {
                (114.160..114.184).contains(&o.loc.x) && (22.288..22.306).contains(&o.loc.y)
            })
            .count();
        assert!(tst > 80, "TST box holds only {tst} hotels");
    }
}
