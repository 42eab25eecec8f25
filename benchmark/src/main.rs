//! `madbench`: one benchmark for the train → serve → ingest → recover loop.
//!
//! ```text
//! madbench run --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>]
//!              [--trace-out <file>] [--smoke]
//! madbench selftest [--sets 2] [--runs 5] [--seed <u64>] [--seconds <s>]
//!                   [--workload <name|all>] [--smoke]
//! madbench compare <a.jsonl> <b.jsonl>
//! ```
//!
//! `run` prints two lines per workload: a detail object (host metadata,
//! checks, sample counts, every metric) and, last, the result object the
//! acceptance driver reads.  See `README.md`.

mod bench;
mod checks;
mod compare;
mod gen;
mod host;
mod ingest;
mod json;
mod mixed;
mod probes;
mod run;
mod schedule;
mod scratch;
mod stats;
mod trace;
mod workload;

use json::Json;
use run::{RunArgs, RunOutput};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::{Workload, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage:
  madbench run --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>] [--trace-out <file>] [--smoke]
  madbench selftest [--sets <n>] [--runs <n>] [--seed <u64>] [--seconds <s>] [--workload <name|all>] [--smoke]
  madbench compare <a.jsonl> <b.jsonl>
  madbench manifest            (prints BENCHMARK.json from the code's tables)
workloads: train_wide grouped_zipf serve_stream ingest_recover mixed_htap";

/// `--flag value` pairs plus bare `--switch`es, after the subcommand.
struct Options {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Options {
    fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut out = Options {
            values: BTreeMap::new(),
            switches: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => out.switches.push(name.to_owned()),
                Some(name) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    out.values.insert(name.to_owned(), value.clone());
                }
                None => return Err(format!("unexpected argument {arg:?}")),
            }
        }
        Ok(out)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read {text:?}")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.values.keys().find(|k| !known.contains(&k.as_str())) {
            Some(unknown) => Err(format!("unknown option --{unknown}")),
            None => Ok(()),
        }
    }
}

fn selected_workloads(name: &str) -> Result<Vec<&'static Workload>, String> {
    if name == "all" {
        return Ok(WORKLOADS.iter().collect());
    }
    workload::find(name)
        .map(|w| vec![w])
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

/// The `--seconds` a smoke run defaults to: five workloads in under 15 s.
const SMOKE_SECONDS: f64 = 1.0;

fn result_line(output: &RunOutput) -> String {
    Json::obj([
        ("correct", Json::Bool(output.correct)),
        ("attempted", Json::Num(output.attempted as f64)),
        ("failed", Json::Num(output.failed as f64)),
        (
            "metrics",
            Json::Obj(
                output
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_line()
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let options = Options::parse(args, &["smoke"])?;
    options.reject_unknown(&["workload", "seed", "seconds", "trace", "trace-out"])?;
    let name: String = options.get("workload", String::new())?;
    if name.is_empty() {
        return Err("run needs --workload".to_owned());
    }
    let smoke = options.has("smoke");
    let seed: u64 = options.get("seed", 1)?;
    let seconds: f64 = options.get("seconds", if smoke { SMOKE_SECONDS } else { RUN_SECONDS })?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    let trace = match options.get("trace", 0u8)? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".to_owned()),
    };
    let trace_out: Option<PathBuf> = options.values.get("trace-out").map(PathBuf::from);

    let selected = selected_workloads(&name)?;
    if selected.len() > 1 {
        // One process per workload, so peak RSS is each workload's own.
        let mut all_ok = true;
        for w in selected {
            let mut command = child_command(w.name, seed, seconds, trace, smoke)?;
            if let Some(path) = &trace_out {
                command
                    .arg("--trace-out")
                    .arg(format!("{}.{}", path.display(), w.name));
            }
            let status = command.status().map_err(|e| format!("spawn run: {e}"))?;
            all_ok &= status.success();
        }
        return Ok(if all_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let base = selected[0];
    let workload = if smoke { base.smoke() } else { *base }.scaled_to(seconds);
    let output = run::run(&RunArgs {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
        smoke,
    })?;
    println!("{}", output.detail.to_line());
    println!("{}", result_line(&output));
    Ok(if output.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `madbench run` for one workload as a child process of this executable.
fn child_command(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Command, String> {
    let mut command = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    Ok(command)
}

/// Runs one workload in a child process and returns its detail object.
fn child_run(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Result<Json, String> {
    let mut command = child_command(workload, seed, seconds, false, smoke)?;
    command.stderr(Stdio::inherit());
    let output = command.output().map_err(|e| format!("spawn run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "run of {workload} (seed {seed}) exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .rev()
        .nth(1)
        .ok_or_else(|| format!("run of {workload} printed no detail line"))?;
    Json::parse(detail)
}

/// Two alternating sets of runs of the same code must agree within every
/// end-to-end metric's bound — if they do not, the benchmark (or the host)
/// is too noisy to judge a change by.
fn selftest_command(args: &[String]) -> Result<ExitCode, String> {
    let options = Options::parse(args, &["smoke"])?;
    options.reject_unknown(&["sets", "runs", "seed", "seconds", "workload"])?;
    let sets: usize = options.get("sets", 2)?;
    let runs: usize = options.get("runs", 5)?;
    let seed: u64 = options.get("seed", 1)?;
    let smoke = options.has("smoke");
    let seconds: f64 = options.get("seconds", if smoke { SMOKE_SECONDS } else { RUN_SECONDS })?;
    if sets < 2 || runs < 2 {
        return Err("selftest needs at least 2 sets of at least 2 runs".to_owned());
    }
    let mut all_ok = true;
    println!("{}", compare::Row::header());
    for w in selected_workloads(&options.get("workload", "all".to_owned())?)? {
        let mut per_set: Vec<Vec<Json>> = vec![Vec::new(); sets];
        for run in 0..runs {
            // Alternate which set goes first; every set sees the same seeds.
            for turn in 0..sets {
                let set = (turn + run) % sets;
                per_set[set].push(child_run(w.name, seed + run as u64, seconds, smoke)?);
            }
        }
        for other in 1..sets {
            let rows = compare::compare_sets(w.name, &per_set[0], &per_set[other]);
            for row in &rows {
                println!("{}", row.render());
                all_ok &= row.within_bound();
            }
        }
    }
    println!(
        "selftest: {}",
        if all_ok {
            "sets agree within every bound"
        } else {
            "FAILED"
        }
    );
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two files".to_owned());
    };
    let a = compare::read_details(a)?;
    let b = compare::read_details(b)?;
    println!("{}", compare::Row::header());
    for w in &WORKLOADS {
        let of = |details: &[Json]| -> Vec<Json> {
            details
                .iter()
                .filter(|d| d.get("workload").and_then(Json::as_str) == Some(w.name))
                .cloned()
                .collect()
        };
        for row in compare::compare_sets(w.name, &of(&a), &of(&b)) {
            println!("{}", row.render());
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) if command == "run" => run_command(rest),
        Some((command, rest)) if command == "selftest" => selftest_command(rest),
        Some((command, rest)) if command == "compare" => compare_command(rest),
        Some((command, [])) if command == "manifest" => {
            println!("{}", workload::manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("madbench: {message}");
            ExitCode::from(2)
        }
    }
}
