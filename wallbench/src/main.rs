//! Wall-clock benchmark of the Space Odyssey engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path wallbench/Cargo.toml -- \
//!     --workload <explore|lookup|serve|churn|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload builds its inputs from the
//! seed, drives the engine through its public API for about `--seconds`,
//! checks every answer against the `geom` brute-force oracles and prints
//! its metrics; the last line of a workload's output is one JSON object.
//! `all` runs the four workloads one after another. With `--trace 1` the run
//! also records spans around every call it makes into the engine and
//! reports the per-layer metrics instead of the end-to-end ones. Scratch
//! stores and span files go to `.wallbench/`. The exit code is 1 when any
//! answer or check failed, 2 on bad arguments.

mod churn;
mod common;
mod converged;
mod explore;
mod host;
mod lookup;
mod metrics;
mod oracle;
mod serve;
mod tracer;

use common::Ctx;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["explore", "lookup", "serve", "churn"];

fn parse(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15.0),
        traced: traced.unwrap_or(false),
        dir: std::path::PathBuf::from(".wallbench"),
        started: std::time::Instant::now(),
    };
    Ok((workload, ctx))
}

/// Runs one workload and prints its result; returns whether it was correct.
fn run(workload: &str, ctx: &Ctx) -> bool {
    println!(
        "wallbench workload={workload} seed={} seconds={} trace={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced)
    );
    println!("host   {}", host::stamp(&ctx.dir));
    let report = match workload {
        "explore" => explore::run(ctx),
        "lookup" => lookup::run(ctx),
        "serve" => serve::run(ctx),
        _ => churn::run(ctx),
    };
    report.print(ctx.traced);
    report.correct()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("wallbench: cannot create {}: {e}", ctx.dir.display());
        return ExitCode::from(2);
    }
    let chosen: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let mut correct = true;
    for w in chosen {
        let ctx = Ctx {
            started: std::time::Instant::now(),
            ..ctx.clone()
        };
        correct &= run(w, &ctx);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
