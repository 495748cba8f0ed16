//! `perfbench --workload <sim|analysis|net|cluster> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 when an output check failed and 2 when the run could not be made.

use perfbench::{result_json, Ctx, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: perfbench::sys::CountingAlloc = perfbench::sys::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <sim|analysis|net|cluster> --seed <n> \
                     --seconds <s> --trace <0|1> [--out <dir>]";

fn parse() -> Result<(Workload, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 15.0,
        trace: false,
        toy: false,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => ctx.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => ctx.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => ctx.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(ctx.seconds > 0.0 && ctx.seconds <= 3600.0) {
        return Err(format!(
            "--seconds must be in (0, 3600], got {}",
            ctx.seconds
        ));
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let meta = arrow_bench::meta::BenchMeta::capture();
    println!(
        "perfbench {} seed {} seconds {} trace {} | git {} | {} | cores {}",
        workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        meta.git_rev,
        meta.date,
        meta.cores
    );
    match perfbench::run(workload, &ctx) {
        Ok(out) => {
            for line in &out.report {
                println!("{line}");
            }
            for failure in &out.check_failures {
                println!("CHECK FAILED: {failure}");
            }
            println!("{}", result_json(&ctx, &out));
            if out.check_failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
