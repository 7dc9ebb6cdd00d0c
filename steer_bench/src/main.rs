//! `steer_bench` — the repository's one benchmark. One process runs one
//! workload: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! (plus `--quick`, `--scale <f>` and `--out <file>` for manual runs). It
//! prints every metric by name with its unit, checks that the program's
//! outputs are correct, ends its output with the result as one JSON
//! object, and exits non-zero if anything was wrong. See the README.

mod alloc_count;
mod inputs;
mod probes;
mod record;
mod report;
mod run;
mod stats;
mod steering;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use run::Options;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

const USAGE: &str =
    "usage: steer-bench --workload <loop-a|daytime-a|discover-bc|serve-hot|serve-churn> \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--scale F] [--out FILE]";

/// Parse the command line; `Err` carries what was wrong with it.
fn parse(args: &[String]) -> Result<(Options, Option<String>), String> {
    let mut o = Options {
        workload: Workload::LoopA,
        seed: 2021,
        seconds: 10.0,
        trace: false,
        quick: false,
        scale: 1.0,
    };
    let mut workload = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            o.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                o.scale = value.parse().map_err(|_| bad())?;
                // Up the ladder only: below the contract's sizes a seed can
                // leave a workload with no job in the runtime window.
                if !(1.0..=100.0).contains(&o.scale) {
                    return Err(bad());
                }
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    o.workload = workload.ok_or("--workload is required")?;
    Ok((o, out))
}

fn main() -> ExitCode {
    let started = Instant::now();
    alloc_count::keep_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (options, out) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run::run(&options, started);
    let text = outcome.render();
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    print!("{text}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s listed under `key` in `BENCHMARK.json`.
    fn declared(json: &str, key: &str) -> Vec<String> {
        let section = &json[json.find(&format!("\"{key}\"")).expect("key present")..];
        let section = &section[..section.find(']').expect("array closes")];
        section
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn the_command_line_is_checked() {
        let (o, out) = parse(&args(&[
            "--workload",
            "serve-hot",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("the contract's arguments parse");
        assert_eq!(o.workload, Workload::ServeHot);
        assert_eq!((o.seed, o.seconds, o.trace, o.quick), (7, 3.0, true, false));
        assert!(out.is_none());
        assert!(parse(&args(&["--seed", "7"])).is_err(), "no workload");
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--workload", "loop-a", "--trace", "2"])).is_err());
        assert!(parse(&args(&["--workload", "loop-a", "--seconds", "0"])).is_err());
        assert!(parse(&args(&["--workload", "loop-a", "--seed"])).is_err());
    }

    /// `--quick` of every workload, plain and traced, in one test because
    /// the tracer is process-wide: each run is correct and emits every
    /// metric `BENCHMARK.json` declares for its mode exactly once.
    #[test]
    fn quick_runs_emit_every_declared_metric_once() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let workloads = declared(&json, "workloads");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(
            workloads, names,
            "workloads declared and implemented differ"
        );

        for workload in Workload::ALL {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let options = Options {
                    workload,
                    seed: 7,
                    seconds: 1.0,
                    trace,
                    quick: true,
                    scale: 1.0,
                };
                let outcome = run::run(&options, Instant::now());
                assert!(
                    outcome.correct(),
                    "{} trace={trace}: {:?}",
                    workload.name(),
                    outcome.violations
                );
                assert!(outcome.attempted >= 1);
                let line = outcome.result_json();
                let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
                let want = declared(&json, key);
                for name in &want {
                    assert_eq!(
                        metrics.matches(&format!("\"{name}\":")).count(),
                        1,
                        "{} trace={trace}: {name}",
                        workload.name()
                    );
                }
                assert_eq!(
                    metrics.matches("\"value\":").count(),
                    want.len(),
                    "{} trace={trace} emits a metric that is not declared",
                    workload.name()
                );
            }
        }
    }
}
