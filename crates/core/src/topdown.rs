//! The per-`k` search core: Algorithm 1 (top-down search for a single
//! `k`), the `IterTD` baseline that applies it for every `k` in the range
//! (§IV-A), and the depth-first most-specific search behind the §III
//! variants in [`crate::upper`].
//!
//! Both searches walk the search tree of Definition 4.1 from the
//! single-term patterns, fresh-count every node they visit (one
//! `nodes_evaluated` each) and poll the deadline before every count. They
//! differ only in their predicates over `(s_D, s_Rk)`, which the callers
//! pass in; [`run_range`] drives either one over a `k` range.

use std::collections::VecDeque;

use crate::bounds::BiasMeasure;
use crate::pattern::Pattern;
use crate::space::{AttrId, CountsProvider, PatternSpace};
use crate::stats::{DeadlineGuard, DetectConfig, DetectionOutput, KResult, SearchStats};

/// Outcome of one most-general search.
#[derive(Debug, Clone)]
pub(crate) struct SingleK {
    /// Most general flagged substantial patterns (the paper’s `Res`).
    pub res: Vec<Pattern>,
    /// Flagged substantial patterns reached during the search that are
    /// dominated by a pattern in `res` (the paper’s `DRes`). The engine
    /// module maintains its own equivalent; this one documents Algorithm 1
    /// faithfully and is exercised by the Example 4.6 test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub dres: Vec<Pattern>,
}

/// The search-tree children of `p` (Definition 4.1): one more term over an
/// attribute past `p`'s largest one. The children of the empty pattern are
/// the single-term patterns.
fn children<'a>(space: &'a PatternSpace, p: &'a Pattern) -> impl Iterator<Item = Pattern> + 'a {
    let start = p.max_attr().map_or(0, |a| a + 1);
    (start..space.n_attrs() as AttrId)
        .flat_map(move |a| space.value_codes(a).map(move |v| p.child(a, v)))
}

/// Algorithm 1: a breadth-first top-down traversal of the search tree
/// that stops expanding below size-pruned (`s_D < τs`) and flagged nodes,
/// returning the most general substantial patterns satisfying
/// `flagged(s_D, s_Rk)`. `IterTD` flags biased patterns; the §III
/// most-general upper variant flags `s_Rk > U_k`. `None` on expiry.
///
/// Breadth-first order guarantees that when a pattern `p` is examined,
/// every *minimal* flagged proper subset of `p` is already in `res` (subsets
/// live on strictly smaller levels and are never size-pruned, since `s_D`
/// is anti-monotone). The `update(Res, p)` of the paper therefore reduces
/// to a subset probe against `res`.
pub(crate) fn most_general<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    tau_s: usize,
    k: usize,
    flagged: impl Fn(usize, usize) -> bool,
    stats: &mut SearchStats,
    guard: &mut DeadlineGuard,
) -> Option<SingleK> {
    let mut res: Vec<Pattern> = Vec::new();
    let mut dres: Vec<Pattern> = Vec::new();
    let mut queue: VecDeque<Pattern> = children(space, &Pattern::empty()).collect();
    while let Some(p) = queue.pop_front() {
        if guard.expired() {
            return None;
        }
        let (sd, count) = index.counts(&p, k);
        stats.nodes_evaluated += 1;
        if sd < tau_s {
            continue; // s_D is anti-monotone: the whole subtree is pruned.
        }
        if flagged(sd, count) {
            if res.iter().any(|q| q.is_subset_of(&p)) {
                dres.push(p);
            } else {
                res.push(p);
            }
        } else {
            queue.extend(children(space, &p));
        }
    }
    res.sort_unstable();
    dres.sort_unstable();
    Some(SingleK { res, dres })
}

/// The depth-first most-specific search: enumerates the set `W` of
/// patterns satisfying `within(s_D, s_Rk)`, keeps the members that also
/// satisfy `keep(s_D, s_Rk)`, and returns, in canonical order, the kept
/// patterns none of whose one-term extensions (over *any* unused
/// attribute, not just larger-indexed ones) lies in `W`. `None` on expiry.
///
/// `W` must be subset-closed, so the search tree reaches all of it
/// through members. If kept patterns are moreover closed under supersets
/// within `W` (trivially so when `keep` accepts all of `W`), the result is
/// exactly the maximal kept patterns: a kept `p` with a proper superset
/// `q ∈ W` has a one-term extension `⊆ q` in `W`, and that extension is
/// kept too. Maximality is thus decided by one probe per extension.
pub(crate) fn most_specific<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    k: usize,
    within: impl Fn(usize, usize) -> bool,
    keep: impl Fn(usize, usize) -> bool,
    stats: &mut SearchStats,
    guard: &mut DeadlineGuard,
) -> Option<Vec<Pattern>> {
    let mut kept: Vec<Pattern> = Vec::new();
    let mut stack: Vec<Pattern> = children(space, &Pattern::empty()).collect();
    while let Some(p) = stack.pop() {
        if guard.expired() {
            return None;
        }
        stats.nodes_evaluated += 1;
        let (sd, count) = index.counts(&p, k);
        if !within(sd, count) {
            continue;
        }
        stack.extend(children(space, &p));
        if keep(sd, count) {
            kept.push(p);
        }
    }
    let mut maximal: Vec<Pattern> = Vec::new();
    'outer: for p in kept {
        for a in space.attr_ids() {
            if p.value_of(a).is_some() {
                continue;
            }
            for v in space.value_codes(a) {
                if guard.expired() {
                    return None;
                }
                let mut terms = p.terms().to_vec();
                terms.push((a, v));
                let ext = Pattern::from_terms(terms).expect("attribute unused");
                stats.nodes_evaluated += 1;
                let (sd, count) = index.counts(&ext, k);
                if within(sd, count) {
                    continue 'outer;
                }
            }
        }
        maximal.push(p);
    }
    maximal.sort_unstable();
    Some(maximal)
}

/// The per-`k` runner: one fresh `search` per `k` of the range, each
/// counted in `full_searches`, sharing one deadline guard. A search that
/// returns `None` (deadline expired) truncates the output to the `k`
/// values completed before it and sets [`SearchStats::timed_out`].
pub(crate) fn run_range(
    cfg: &DetectConfig,
    mut search: impl FnMut(usize, &mut SearchStats, &mut DeadlineGuard) -> Option<Vec<Pattern>>,
) -> DetectionOutput {
    let mut stats = SearchStats::default();
    let mut guard = DeadlineGuard::new(cfg.deadline);
    let mut per_k = Vec::with_capacity(cfg.range_len());
    for k in cfg.k_min..=cfg.k_max {
        stats.full_searches += 1;
        match search(k, &mut stats, &mut guard) {
            Some(patterns) => per_k.push(KResult { k, patterns }),
            None => {
                stats.timed_out = true;
                break;
            }
        }
    }
    stats.elapsed = guard.elapsed();
    DetectionOutput { per_k, stats }
}

/// The `IterTD` baseline (§IV-A): one full top-down search per `k`.
pub(crate) fn iter_td<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    cfg: &DetectConfig,
    measure: &BiasMeasure,
) -> DetectionOutput {
    let n = index.n();
    run_range(cfg, |k, stats, guard| {
        let biased = |sd, count| measure.is_biased(count, sd, k, n);
        most_general(index, space, cfg.tau_s, k, biased, stats, guard).map(|single| single.res)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::Bounds;
    use crate::space::RankedIndex;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_rank::Ranking;

    fn fig1() -> (PatternSpace, RankedIndex) {
        let ds = students_fig1();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let index = RankedIndex::build(&ds, &space, &ranking);
        (space, index)
    }

    /// Algorithm 1 at one `k` with no deadline.
    fn top_down(
        index: &RankedIndex,
        space: &PatternSpace,
        tau_s: usize,
        k: usize,
        measure: &BiasMeasure,
    ) -> SingleK {
        let biased = |sd, count| measure.is_biased(count, sd, k, index.n());
        let mut stats = SearchStats::default();
        let mut guard = DeadlineGuard::new(None);
        most_general(index, space, tau_s, k, biased, &mut stats, &mut guard)
            .expect("a guard without a deadline never expires")
    }

    fn names(space: &PatternSpace, pats: &[Pattern]) -> Vec<String> {
        pats.iter().map(|p| space.display(p)).collect()
    }

    #[test]
    fn example_4_6_top_down_at_k4() {
        // τs = 4, k = 4, L = 2: Res[4] must contain {School=GP},
        // {Address=U}, {Failures=1} and {Failures=2}; DRes must contain the
        // four dominated two-term patterns listed in Example 4.6.
        let (space, index) = fig1();
        let measure = BiasMeasure::GlobalLower(Bounds::constant(2));
        let single = top_down(&index, &space, 4, 4, &measure);
        let res = names(&space, &single.res);
        assert!(res.contains(&"{School=GP}".to_string()));
        assert!(res.contains(&"{Address=U}".to_string()));
        assert!(res.contains(&"{Failures=1}".to_string()));
        assert!(res.contains(&"{Failures=2}".to_string()));
        // Example 4.6 lists its patterns “among others”; the other most
        // general biased patterns at k = 4 are the two below (both size 4,
        // one tuple in the top-4, and no biased subset).
        assert!(res.contains(&"{Gender=F, School=MS}".to_string()));
        assert!(res.contains(&"{Gender=F, Address=R}".to_string()));
        assert_eq!(res.len(), 6, "unexpected extra results: {res:?}");
        let dres = names(&space, &single.dres);
        for expected in [
            "{Gender=F, Address=U}",
            "{Gender=M, Address=U}",
            "{Gender=F, Failures=1}",
            "{Address=R, Failures=1}",
        ] {
            assert!(
                dres.contains(&expected.to_string()),
                "missing {expected} in {dres:?}"
            );
        }
    }

    #[test]
    fn example_4_6_top_down_at_k5() {
        // After adding tuple 14 (rank 5), {Address=U} and {Failures=1} are
        // no longer biased; {Address=U, Failures=1} and the four previously
        // dominated patterns become most general.
        let (space, index) = fig1();
        let measure = BiasMeasure::GlobalLower(Bounds::constant(2));
        let res = names(&space, &top_down(&index, &space, 4, 5, &measure).res);
        let expected = [
            "{School=GP}",
            "{Failures=2}",
            "{Address=U, Failures=1}",
            "{Gender=F, Address=U}",
            "{Gender=M, Address=U}",
            "{Gender=F, Failures=1}",
            "{Address=R, Failures=1}",
            // Unaffected carry-overs from k = 4 (tuple 14 is male):
            "{Gender=F, School=MS}",
            "{Gender=F, Address=R}",
        ];
        for e in expected {
            assert!(res.contains(&e.to_string()), "missing {e} in {res:?}");
        }
        assert_eq!(res.len(), expected.len(), "unexpected extras: {res:?}");
    }

    #[test]
    fn example_4_9_proportional_at_k4_and_k5() {
        // τs = 5, α = 0.9: Res[4] = {School=GP}, {Address=U}, {Failures=1};
        // Res[5] additionally contains {Gender=F}.
        let (space, index) = fig1();
        let measure = BiasMeasure::Proportional { alpha: 0.9 };
        let res4 = names(&space, &top_down(&index, &space, 5, 4, &measure).res);
        assert_eq!(
            res4,
            vec!["{School=GP}", "{Address=U}", "{Failures=1}"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
        let res5 = names(&space, &top_down(&index, &space, 5, 5, &measure).res);
        assert!(res5.contains(&"{Gender=F}".to_string()));
        assert!(res5.contains(&"{School=GP}".to_string()));
        assert!(res5.contains(&"{Address=U}".to_string()));
        assert!(res5.contains(&"{Failures=1}".to_string()));
        assert_eq!(res5.len(), 4, "unexpected extras: {res5:?}");
    }

    #[test]
    fn results_are_most_general_and_substantial() {
        let (space, index) = fig1();
        for tau in [1, 2, 4, 8] {
            for k in 1..=16 {
                let measure = BiasMeasure::GlobalLower(Bounds::constant(3));
                let res = top_down(&index, &space, tau, k, &measure).res;
                for p in &res {
                    let (sd, count) = index.counts(p, k);
                    assert!(sd >= tau);
                    assert!(measure.is_biased(count, sd, k, index.n()));
                }
                for a in &res {
                    for b in &res {
                        assert!(
                            a == b || !a.is_proper_subset_of(b),
                            "{} subsumes {}",
                            space.display(a),
                            space.display(b)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn iter_td_covers_whole_range() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(4, 4, 6);
        let out = iter_td(
            &index,
            &space,
            &cfg,
            &BiasMeasure::GlobalLower(Bounds::constant(2)),
        );
        assert_eq!(out.per_k.len(), 3);
        assert_eq!(out.per_k[0].k, 4);
        assert_eq!(out.stats.full_searches, 3);
        assert!(!out.stats.timed_out);
        assert!(out.stats.nodes_evaluated > 0);
    }

    #[test]
    fn iter_td_deadline_truncates() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(1, 1, 16).with_deadline(std::time::Duration::from_nanos(1));
        // Tiny search: may or may not hit the (1024-tick) deadline check,
        // but must never panic and must stay consistent.
        let out = iter_td(
            &index,
            &space,
            &cfg,
            &BiasMeasure::GlobalLower(Bounds::constant(2)),
        );
        assert!(out.per_k.len() <= 16);
        if out.per_k.len() < 16 {
            assert!(out.stats.timed_out);
        }
    }

    #[test]
    fn huge_lower_bound_returns_level_one_patterns() {
        // With L_k > k every pattern is biased; the most general ones are
        // exactly the substantial single-term patterns.
        let (space, index) = fig1();
        let measure = BiasMeasure::GlobalLower(Bounds::constant(100));
        let res = top_down(&index, &space, 4, 5, &measure).res;
        assert!(res.iter().all(|p| p.len() == 1));
        let n_substantial_singletons: usize = (0..space.n_attrs() as u16)
            .map(|a| {
                (0..space.card(a) as u16)
                    .filter(|&v| index.size_in_data(&Pattern::single(a, v)) >= 4)
                    .count()
            })
            .sum();
        assert_eq!(res.len(), n_substantial_singletons);
    }

    #[test]
    fn zero_bound_returns_nothing() {
        let (space, index) = fig1();
        let measure = BiasMeasure::GlobalLower(Bounds::constant(0));
        assert!(top_down(&index, &space, 1, 5, &measure).res.is_empty());
    }
}
