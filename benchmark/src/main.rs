//! The repo's benchmark (see `README.md` in this directory).
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and prints its result as the last line of standard output.
//! Without `--workload`, every workload runs untraced and traced in
//! child processes and the numbers go to `RESULTS.json`.

mod device;
mod gen;
mod hist;
mod json;
mod metrics;
mod micro;
mod run;
mod suite;
mod traced;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u32 = 15;

const USAGE: &str = "usage: pdl-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace [0|1]] [--dir <path>] [--check-repeat] [--print-manifest]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    check_repeat: bool,
    print_manifest: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let home = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        dir: home.join("out"),
        check_repeat: false,
        print_manifest: false,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--dir" => args.dir = PathBuf::from(value("a path")?),
            "--trace" => {
                args.trace = match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--check-repeat" => args.check_repeat = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The contents of `BENCHMARK.json`, generated from the tables the
/// runs themselves use.
fn manifest() -> String {
    let workloads: Vec<String> = workloads::WORKLOADS
        .iter()
        .map(|w| {
            format!("    {{\"name\": {}, \"why\": {}}}", json::string(w.name), json::string(w.why))
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn real_main() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1)).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.print_manifest {
        print!("{}", manifest());
        return Ok(true);
    }
    let Some(name) = &args.workload else {
        return suite::run(&suite::SuiteArgs {
            seed: args.seed,
            seconds: args.seconds,
            dir: args.dir,
            check_repeat: args.check_repeat,
            results: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("RESULTS.json"),
        });
    };
    let spec = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; the workloads are {}", names.join(", "))
    })?;
    let run_args =
        run::RunArgs { seed: args.seed, seconds: args.seconds, trace: args.trace, dir: args.dir };
    let outcome = run::run(spec, &run_args)?;
    println!("{}", outcome.to_json());
    Ok(outcome.correct && outcome.failed == 0)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("pdl-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_invocation_and_the_bare_trace_flag() {
        let a = args("--workload small_mixed_mem --seed 7 --seconds 3 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("small_mixed_mem"), 7, 3.0, false)
        );
        assert!(args("--trace 1 --seed 2").unwrap().trace);
        let bare = args("--trace --seed 2").unwrap();
        assert!(bare.trace && bare.seed == 2);
        assert!(
            args("--seconds 0").is_err() && args("--bogus").is_err() && args("--seed").is_err()
        );
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with --print-manifest");
        assert!(committed.len() < 64 << 10);
        assert!(workloads::WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
