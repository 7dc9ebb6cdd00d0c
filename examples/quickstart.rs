//! Quickstart: build a job by hand, compile it under the default rule
//! configuration, inspect its rule signature, steer the optimizer by
//! disabling a rule, and compare simulated executions.
//!
//! Run: `cargo run --release --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_steer::exec::ABTester;
use scope_steer::ir::expr::{CmpOp, Literal, PredAtom, Predicate};
use scope_steer::ir::ids::{DomainId, JobId};
use scope_steer::ir::ops::{AggFunc, JoinKind, LogicalOp};
use scope_steer::ir::{InputRef, Job, PlanGraph, TrueCatalog};
use scope_steer::optimizer::{compile_job, RuleCatalog, RuleConfig};

fn main() {
    // ── 1. Describe the world: two inputs, one skewed join key. ──────────
    let mut catalog = TrueCatalog::new();
    let clicks_key = catalog.add_column(50_000, 0.35, DomainId(0)); // skewed!
    let clicks_attr = catalog.add_column(200, 0.0, DomainId(1));
    let users_key = catalog.add_column(50_000, 0.0, DomainId(0));
    let users_attr = catalog.add_column(1_000, 0.0, DomainId(2));
    let clicks = catalog.add_table(800_000_000, 120, 0xC11C5, vec![clicks_key, clicks_attr]);
    let users = catalog.add_table(5_000_000, 80, 0x05E25, vec![users_key, users_attr]);
    // The filter's *true* selectivity is 0.2 — fifty times what the
    // optimizer's shape heuristic will estimate for an equality predicate.
    let campaign_pred = catalog.add_pred(0.2, None);

    // ── 2. Write the script: filter clicks, join users, aggregate. ───────
    let mut plan = PlanGraph::new();
    let scan_clicks = plan.add_unchecked(LogicalOp::Get { table: clicks }, vec![]);
    let filtered = plan.add_unchecked(
        LogicalOp::Select {
            predicate: Predicate::atom(PredAtom {
                col: clicks_attr,
                op: CmpOp::Eq,
                literal: Literal::Int(42),
                pred: campaign_pred,
            }),
        },
        vec![scan_clicks],
    );
    let scan_users = plan.add_unchecked(LogicalOp::Get { table: users }, vec![]);
    let joined = plan.add_unchecked(
        LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![(clicks_key, users_key)],
        },
        vec![filtered, scan_users],
    );
    let agg = plan.add_unchecked(
        LogicalOp::GroupBy {
            keys: vec![users_attr],
            aggs: vec![AggFunc::Count],
            partial: false,
        },
        vec![joined],
    );
    let output = plan.add_unchecked(LogicalOp::Output { stream: 0xFEED }, vec![agg]);
    plan.set_root(output);

    let job = Job::new(
        JobId(1),
        plan,
        catalog,
        vec![
            InputRef {
                name_hash: 0xC11C5,
                bytes: 800_000_000 * 120,
            },
            InputRef {
                name_hash: 0x05E25,
                bytes: 50_000 * 80,
            },
        ],
        0,
        50,
    );

    // ── 3. Compile with the default configuration. ───────────────────────
    let default = compile_job(&job, &RuleConfig::default_config()).expect("compiles");
    let rules = RuleCatalog::global();
    println!("default plan (estimated cost {:.1}):", default.est_cost);
    println!("{}", default.plan.render());
    println!("rule signature ({} rules):", default.signature.len());
    for id in default.signature.on_rules() {
        println!("  {} [{:?}]", rules.rule(id).name, rules.rule(id).category);
    }

    // ── 4. Execute on the simulated cluster (A/B harness, 50 tokens). ────
    let ab = ABTester::new(7);
    let m_default = ab.run(&job, &default.plan, 0);
    println!(
        "\ndefault execution: runtime {:.0}s, cpu {:.0}s, io {:.0}s",
        m_default.runtime, m_default.cpu_time, m_default.io_time
    );

    // ── 5. Steer: a miniature version of the paper's pipeline — compute
    //       the job span (Algorithm 1), sample candidate configurations
    //       from it (§5.2), recompile, and execute the candidates.
    let obs = job.catalog.observe();
    let span = scope_steer::steer::approximate_span(&job.plan, &obs);
    println!(
        "
job span: {} rules can affect this plan (found in {} iterations)",
        span.len(),
        span.iterations
    );
    let mut rng = StdRng::seed_from_u64(9);
    let candidates = scope_steer::steer::candidate_configs(&span, 60, &mut rng);
    let mut best: Option<(RuleConfig, f64)> = None;
    let mut compile_failures = 0;
    for config in candidates {
        let Ok(candidate) = compile_job(&job, &config) else {
            compile_failures += 1; // some configurations do not compile — expected
            continue;
        };
        let m = ab.run(&job, &candidate.plan, 0);
        if best.as_ref().is_none_or(|(_, rt)| m.runtime < *rt) {
            best = Some((config, m.runtime));
        }
    }
    println!("({compile_failures} sampled configurations failed to compile)");
    let (best_config, best_runtime) = best.expect("some candidate compiled");
    let steered = compile_job(&job, &best_config).expect("best config compiles");
    println!("\nbest of 60 sampled configurations:");
    println!("{}", steered.plan.render());
    println!(
        "steered execution: runtime {:.0}s ({:+.1}% vs default)",
        best_runtime,
        100.0 * (best_runtime - m_default.runtime) / m_default.runtime
    );
    let diff = scope_steer::optimizer::RuleDiff::between(&default.signature, &steered.signature);
    println!("RuleDiff: {}", diff.render());
}
