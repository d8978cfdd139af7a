//! Upper-bound detection: the paper’s §III “Upper bounds” extension.
//!
//! For the lower-bound problems the *most general* biased patterns are the
//! informative ones; for upper bounds it is the other way around: “if the
//! number of black females is above the upper bound, then so is the number
//! of blacks and the number of females” — over-representation is closed
//! under taking subsets. The informative answer is therefore the **most
//! specific** substantial patterns exceeding the bound: patterns `p` with
//! `s_D(p) ≥ τs` and `s_Rk(p) > U_k` such that no proper superset also
//! qualifies.
//!
//! Because the qualifying set is subset-closed, maximality can be decided
//! locally: `p` is maximal iff no single-term extension of `p` qualifies.
//!
//! The three per-`k` variants here are thin instantiations of the search
//! core in `topdown.rs`: the most specific ones of its depth-first
//! most-specific search, the most general one of Algorithm 1's
//! breadth-first search with the predicate flipped. `Audit::run` answers
//! over-representation with the incremental upper engine instead; these
//! remain as the free-standing per-`k` rescan it is measured and
//! differentially checked against.

use crate::bounds::Bounds;
use crate::pattern::Pattern;
use crate::space::{CountsProvider, PatternSpace};
use crate::stats::{DeadlineGuard, DetectConfig, DetectionOutput, SearchStats};
use crate::topdown::{most_general, most_specific, run_range};

/// Upper-bound detection over a `k` range: for each `k`, the most specific
/// substantial patterns with `s_Rk(p) > U_k`.
///
/// This is the **per-`k` rescan**: every `k` pays a fresh DFS plus the
/// full maximality sweep. [`crate::Audit::run`] with `Engine::Optimized`
/// uses the incremental upper engine instead.
///
/// Honors [`DetectConfig::deadline`], checking it *inside* each single-`k`
/// search: a run that exceeds the budget truncates to the completed `k`
/// values and sets [`SearchStats::timed_out`].
pub fn upper_most_specific<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    cfg: &DetectConfig,
    upper: &Bounds,
) -> DetectionOutput {
    assert!(cfg.k_max <= index.n(), "k_max exceeds the ranked tuples");
    run_range(cfg, |k, stats, guard| {
        let u = upper.at(k);
        let qualifies = |sd, count| sd >= cfg.tau_s && count > u;
        most_specific(index, space, k, qualifies, |_, _| true, stats, guard)
    })
}

/// Most **general** patterns exceeding the upper bound — the paper’s other
/// §III variant. Over-representation (`s_Rk > U_k`) is subset-closed
/// (subsets have larger counts), so the minimal patterns are found by the
/// same breadth-first dominance search the lower-bound problem uses, with
/// the predicate flipped: expansion stops at qualifying nodes.
pub fn upper_most_general_single_k<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    tau_s: usize,
    k: usize,
    upper: usize,
    stats: &mut SearchStats,
) -> Vec<Pattern> {
    let mut guard = DeadlineGuard::new(None);
    let over = |_, count| count > upper;
    most_general(index, space, tau_s, k, over, stats, &mut guard)
        .expect("a guard without a deadline never expires")
        .res
}

/// Most **specific** substantial patterns below the global lower bound —
/// the paper’s remaining §III variant. For the global measure,
/// under-representation is superset-closed (supersets have counts at most
/// as large), so a biased substantial pattern is maximal exactly when
/// every single-term extension falls below `τs`.
pub fn lower_most_specific_single_k<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    tau_s: usize,
    k: usize,
    lower: usize,
    stats: &mut SearchStats,
) -> Vec<Pattern> {
    let mut guard = DeadlineGuard::new(None);
    let substantial = |sd, _| sd >= tau_s;
    let biased = |_, count| count < lower;
    most_specific(index, space, k, substantial, biased, stats, &mut guard)
        .expect("a guard without a deadline never expires")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::OverRepScope;
    use crate::oracle;
    use crate::space::RankedIndex;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_data::Dataset;
    use rankfair_rank::Ranking;

    pub(super) fn fig1() -> (Dataset, PatternSpace, Ranking, RankedIndex) {
        let ds = students_fig1();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let index = RankedIndex::build(&ds, &space, &ranking);
        (ds, space, ranking, index)
    }

    /// The per-`k` rescan at a single `k`.
    fn most_specific_at(
        index: &RankedIndex,
        space: &PatternSpace,
        tau: usize,
        k: usize,
        u: usize,
    ) -> Vec<Pattern> {
        let cfg = DetectConfig::new(tau, k, k);
        let mut out = upper_most_specific(index, space, &cfg, &Bounds::constant(u));
        out.per_k.remove(0).patterns
    }

    #[test]
    fn upper_matches_oracle_on_fig1() {
        let (ds, space, ranking, index) = fig1();
        for tau in [1, 2, 4] {
            let substantial = oracle::enumerate_substantial(&ds, &space, &ranking, tau);
            for k in [3, 5, 8, 16] {
                for u in [0, 1, 2, 4] {
                    let got = most_specific_at(&index, &space, tau, k, u);
                    let over = |count| count > u;
                    let scope = OverRepScope::MostSpecific;
                    let want = oracle::extremal(
                        &ds,
                        &space,
                        &ranking,
                        &substantial,
                        k,
                        over,
                        scope,
                        || false,
                    );
                    assert_eq!(Some(got), want, "tau={tau} k={k} u={u}");
                }
            }
        }
    }

    #[test]
    fn over_represented_groups_exceed_bound_and_are_maximal() {
        let (_ds, space, _ranking, index) = fig1();
        let res = most_specific_at(&index, &space, 2, 5, 2);
        assert!(!res.is_empty());
        for p in &res {
            let (sd, count) = index.counts(p, 5);
            assert!(sd >= 2 && count > 2, "{}", space.display(p));
        }
        for a in &res {
            for b in &res {
                assert!(a == b || !a.is_proper_subset_of(b));
            }
        }
    }

    #[test]
    fn range_runner_covers_the_k_range() {
        let (_ds, space, _ranking, index) = fig1();
        let cfg = DetectConfig::new(4, 4, 6);
        let out = upper_most_specific(&index, &space, &cfg, &Bounds::constant(2));
        assert_eq!(out.per_k.len(), 3);
    }

    #[test]
    fn impossible_upper_bound_returns_nothing() {
        let (_ds, space, _ranking, index) = fig1();
        assert!(most_specific_at(&index, &space, 1, 5, 5).is_empty());
    }
    #[test]
    fn upper_range_honors_deadline() {
        // Regression: `upper_most_specific` used to ignore `cfg.deadline`
        // entirely — a deadline-bound run never stopped and never set
        // `stats.timed_out`. The guard is polled *inside* the single-`k`
        // search, so even the first `k` truncates under a zero budget.
        let (_ds, space, _ranking, index) = fig1();
        let cfg = DetectConfig::new(1, 2, 16).with_deadline(std::time::Duration::ZERO);
        let out = upper_most_specific(&index, &space, &cfg, &Bounds::constant(1));
        assert!(out.stats.timed_out);
        assert!(out.per_k.is_empty());
        // Without a deadline the same run completes and is exact.
        let full = upper_most_specific(
            &index,
            &space,
            &DetectConfig::new(1, 2, 16),
            &Bounds::constant(1),
        );
        assert!(!full.stats.timed_out);
        assert_eq!(full.per_k.len(), 15);
    }
}

#[cfg(test)]
mod variant_tests {
    use super::tests::fig1;
    use super::*;
    use crate::audit::OverRepScope;
    use crate::oracle;

    #[test]
    fn upper_most_general_matches_bruteforce() {
        let (ds, space, ranking, index) = fig1();
        let mut stats = SearchStats::default();
        for tau in [1, 3] {
            let substantial = oracle::enumerate_substantial(&ds, &space, &ranking, tau);
            for k in [4, 8, 16] {
                for u in [0, 1, 3] {
                    let got = upper_most_general_single_k(&index, &space, tau, k, u, &mut stats);
                    let over = |count| count > u;
                    let scope = OverRepScope::MostGeneral;
                    let want = oracle::extremal(
                        &ds,
                        &space,
                        &ranking,
                        &substantial,
                        k,
                        over,
                        scope,
                        || false,
                    );
                    assert_eq!(Some(got), want, "tau={tau} k={k} u={u}");
                }
            }
        }
    }

    #[test]
    fn lower_most_specific_matches_bruteforce() {
        let (ds, space, ranking, index) = fig1();
        let mut stats = SearchStats::default();
        for tau in [2, 4] {
            let substantial = oracle::enumerate_substantial(&ds, &space, &ranking, tau);
            for k in [4, 8] {
                for l in [1, 2, 4] {
                    let got = lower_most_specific_single_k(&index, &space, tau, k, l, &mut stats);
                    let under = |count| count < l;
                    let scope = OverRepScope::MostSpecific;
                    let want = oracle::extremal(
                        &ds,
                        &space,
                        &ranking,
                        &substantial,
                        k,
                        under,
                        scope,
                        || false,
                    );
                    assert_eq!(Some(got), want, "tau={tau} k={k} l={l}");
                }
            }
        }
    }
    #[test]
    fn most_specific_results_are_substantial_and_maximal() {
        let (_ds, space, _ranking, index) = fig1();
        let mut stats = SearchStats::default();
        let res = lower_most_specific_single_k(&index, &space, 4, 4, 2, &mut stats);
        assert!(!res.is_empty());
        for p in &res {
            assert!(index.size_in_data(p) >= 4);
        }
        for a in &res {
            for b in &res {
                assert!(a == b || !a.is_proper_subset_of(b));
            }
        }
    }
}
