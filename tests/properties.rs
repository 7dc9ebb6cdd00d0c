//! Property-based tests over the stack's core invariants.

use proptest::prelude::*;
use scope_steer::exec::simulate::{makespan, Stage, StageGraph};
use scope_steer::ir::expr::{CmpOp, Literal, PredAtom, Predicate};
use scope_steer::ir::ids::{ColId, DomainId, TableId};
use scope_steer::ir::ops::LogicalOp;
use scope_steer::ir::{PlanGraph, TrueCatalog};
use scope_steer::optimizer::{RuleConfig, RuleId, RuleSet, NUM_RULES};
use std::collections::HashSet;
use steer_learn::{normalize_targets, Normalizer};

fn rule_ids() -> impl Strategy<Value = Vec<u16>> {
    proptest::collection::vec(0u16..NUM_RULES as u16, 0..40)
}

proptest! {
    /// RuleSet behaves exactly like a HashSet<u16> model under
    /// insert/remove/union/intersection/difference.
    #[test]
    fn ruleset_matches_hashset_model(a in rule_ids(), b in rule_ids()) {
        let sa: RuleSet = a.iter().map(|&i| RuleId(i)).collect();
        let sb: RuleSet = b.iter().map(|&i| RuleId(i)).collect();
        let ha: HashSet<u16> = a.iter().copied().collect();
        let hb: HashSet<u16> = b.iter().copied().collect();

        let to_model = |s: &RuleSet| -> HashSet<u16> { s.iter().map(|r| r.0).collect() };
        prop_assert_eq!(to_model(&sa), ha.clone());
        prop_assert_eq!(sa.len(), ha.len());
        prop_assert_eq!(
            to_model(&sa.union(&sb)),
            ha.union(&hb).copied().collect::<HashSet<u16>>()
        );
        prop_assert_eq!(
            to_model(&sa.intersection(&sb)),
            ha.intersection(&hb).copied().collect::<HashSet<u16>>()
        );
        prop_assert_eq!(
            to_model(&sa.difference(&sb)),
            ha.difference(&hb).copied().collect::<HashSet<u16>>()
        );
        // Bit-string round trip.
        prop_assert_eq!(RuleSet::from_bit_string(&sa.to_bit_string()), sa);
    }

    /// Disabling any set of rules never disables a required rule, and the
    /// enabled set shrinks monotonically.
    #[test]
    fn rule_config_clamps_required(ids in rule_ids()) {
        let cat = scope_steer::optimizer::RuleCatalog::global();
        let mut config = RuleConfig::default_config();
        let before = config.enabled().len();
        for &i in &ids {
            config.disable(RuleId(i));
        }
        prop_assert!(config.enabled().len() <= before);
        prop_assert!(config
            .enabled()
            .intersection(cat.required())
            .len() == cat.required().len());
    }

    /// Makespan is at least the critical-path lower bound and at most the
    /// serial sum of stage times.
    #[test]
    fn makespan_bounds(
        elapsed in proptest::collection::vec(0.1f64..1000.0, 1..12),
        dops in proptest::collection::vec(1u32..250, 1..12),
        tokens in 1u32..200
    ) {
        let n = elapsed.len().min(dops.len());
        // A linear chain of stages (stage i depends on i-1).
        let stages: Vec<Stage> = (0..n)
            .map(|i| Stage {
                elapsed: elapsed[i],
                dop: dops[i],
                deps: if i == 0 { vec![] } else { vec![i - 1] },
            })
            .collect();
        let graph = StageGraph {
            stages,
            node_stage: vec![],
            root_stage: n - 1,
        };
        let m = makespan(&graph, tokens);
        let serial_upper: f64 = elapsed[..n]
            .iter()
            .zip(&dops[..n])
            .map(|(e, &d)| {
                let waves = (d as f64 / tokens as f64).ceil().max(1.0);
                e * waves + 2.0 + 0.8 * waves
            })
            .sum();
        let lower: f64 = elapsed[..n].iter().sum();
        prop_assert!(m >= lower, "makespan {m} below lower bound {lower}");
        prop_assert!(m <= serial_upper + 1e-6, "makespan {m} above serial {serial_upper}");
        // More tokens never slow the job down.
        prop_assert!(makespan(&graph, tokens + 50) <= m + 1e-9);
    }

    /// True conjunction selectivity is within [min-atom, 1] and never
    /// exceeds any independent product's weakest member.
    #[test]
    fn true_selectivity_bounds(sels in proptest::collection::vec(0.001f64..1.0, 1..6), strength in 0.0f64..1.0) {
        let mut cat = TrueCatalog::new();
        let g = cat.add_corr_group(strength);
        let atoms: Vec<PredAtom> = sels
            .iter()
            .map(|&s| {
                let pred = cat.add_pred(s, Some(g));
                PredAtom { col: ColId(0), op: CmpOp::Eq, literal: Literal::Int(0), pred }
            })
            .collect();
        let combined = cat.true_conj_selectivity(&atoms);
        let min = sels.iter().cloned().fold(1.0f64, f64::min);
        prop_assert!(combined <= min + 1e-12, "combined {combined} > min {min}");
        prop_assert!(combined > 0.0);
    }

    /// Normalizer output always lies in [0, 1]; target normalization puts
    /// the minimum at 0.
    #[test]
    fn encoders_stay_in_unit_interval(rows in proptest::collection::vec(
        proptest::collection::vec(-1e6f64..1e6, 5), 2..20
    )) {
        let norm = Normalizer::fit(&rows);
        for row in &rows {
            for v in norm.transform(row) {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
        let targets = normalize_targets(&rows[0]);
        let min = targets.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(min.abs() < 1e-12);
    }

    /// Random literal values never change a plan's template hash, and any
    /// structural difference (an extra filter) always does.
    #[test]
    fn template_hash_stability(lit1 in any::<i64>(), lit2 in any::<i64>(), extra_col in 0u32..5) {
        let build = |lit: i64, extra: bool| {
            let mut g = PlanGraph::new();
            let s = g.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
            let mut node = g.add_unchecked(
                LogicalOp::Select {
                    predicate: Predicate::atom(PredAtom::unknown(
                        ColId(0),
                        CmpOp::Eq,
                        Literal::Int(lit),
                    )),
                },
                vec![s],
            );
            if extra {
                node = g.add_unchecked(
                    LogicalOp::Select {
                        predicate: Predicate::atom(PredAtom::unknown(
                            ColId(extra_col),
                            CmpOp::Range,
                            Literal::Int(0),
                        )),
                    },
                    vec![node],
                );
            }
            let o = g.add_unchecked(LogicalOp::Output { stream: 9 }, vec![node]);
            g.set_root(o);
            g
        };
        let base1 = build(lit1, false);
        let base2 = build(lit2, false);
        let bigger = build(lit1, true);
        prop_assert_eq!(base1.template_hash(&[1]), base2.template_hash(&[1]));
        prop_assert_ne!(base1.template_hash(&[1]), bigger.template_hash(&[1]));
    }

    /// The hash-share of a partitioning is at least uniform and at most 1.
    #[test]
    fn hash_share_bounds(skew in 0.0f64..1.0, dop in 1u32..300) {
        let mut cat = TrueCatalog::new();
        let col = cat.add_column(1000, skew, DomainId(0));
        let share = scope_steer::exec::truth::hash_share(&cat, &[col], dop);
        prop_assert!(share >= 1.0 / dop as f64 - 1e-12);
        prop_assert!(share <= 1.0);
    }
}
