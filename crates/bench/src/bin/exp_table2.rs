//! **Table 2** — rule categories with statistics: rules per category and
//! how many were never used by any job of one day of Workload A.
//!
//! Run: `cargo run -p scope-steer-bench --release --bin exp_table2 -- [--scale=0.1]`

use scope_exec::ABTester;
use scope_optimizer::optimizer::unused_rules;
use scope_optimizer::{RuleCatalog, RuleCategory, RuleSignature};
use scope_steer_bench::harness::{compile_day, workload, AB_SEED};
use scope_steer_bench::reporting::{banner, markdown_table, scale_arg, write_csv};
use scope_workload::WorkloadTag;

fn main() {
    let scale = scale_arg();
    banner(
        "Table 2",
        "rule categories and unused rules (Workload A, one day)",
    );
    let w = workload(WorkloadTag::A, scale);
    let ab = ABTester::new(AB_SEED);
    let compiled = compile_day(&w, 0, &ab);

    let signatures: Vec<RuleSignature> = compiled.iter().map(|c| c.compiled.signature).collect();
    let unused_set = unused_rules(&signatures);

    let cat = RuleCatalog::global();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for category in RuleCategory::ALL {
        let in_cat: Vec<_> = cat
            .rules()
            .iter()
            .filter(|r| r.category == category)
            .collect();
        let unused = in_cat.iter().filter(|r| unused_set.contains(r.id)).count();
        let examples: Vec<&str> = in_cat
            .iter()
            .filter(|r| !unused_set.contains(r.id))
            .take(3)
            .map(|r| r.name.as_str())
            .collect();
        csv.push(format!("{},{},{}", category.name(), in_cat.len(), unused));
        rows.push(vec![
            category.name().to_string(),
            in_cat.len().to_string(),
            unused.to_string(),
            examples.join(", "),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["Category", "#Rules", "#Unused Rules", "Used examples"],
            &rows
        )
    );
    println!("Paper: Required 37/9 unused, Off-by-default 46/36, On-by-default 141/37, Implementation 32/4");
    let path = write_csv("table2.csv", "category,rules,unused", &csv);
    println!("wrote {}", path.display());
}
