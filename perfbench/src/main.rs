//! `perfbench --workload <trace|analytics|ingest> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Prints every metric by name and unit, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` they are the per-layer ones of the traced run.

use dc_perfbench::client::Budget;
use dc_perfbench::report::{Metrics, END_TO_END, PER_LAYER};
use dc_perfbench::{run, Config, Workload};
use std::process::ExitCode;

fn usage() -> String {
    "usage: perfbench --workload <trace|analytics|ingest> --seed <n> --seconds <s> \
     --trace <0|1>"
        .to_string()
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut cfg = Config::new(Workload::Trace, 2006);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?,
                )
            }
            "--seed" => {
                cfg.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {value}"))?
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive: {value}"));
                }
                cfg.budget = Budget::Seconds(s);
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{}", usage())),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    cfg.workload = workload.ok_or_else(usage)?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench {}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed={} scale={} trace={} attempted={} failed={} failed_frac={} correct={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.scale,
        cfg.trace as u8,
        out.attempted,
        out.failed,
        out.failed_frac(),
        out.correct
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in out.e2e.0.iter().chain(out.layers.0.iter()) {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let mut line = Metrics::default();
    if cfg.trace {
        for (name, unit) in PER_LAYER {
            line.set(name, out.layers.get(name).unwrap_or(0.0), unit);
        }
    } else {
        for name in END_TO_END {
            let m = out.e2e.0.iter().find(|m| m.name == name);
            let Some(m) = m else {
                eprintln!("perfbench: end-to-end metric {name} missing");
                return ExitCode::FAILURE;
            };
            line.set(name, m.value, m.unit);
        }
    }
    println!("{}", out.result_json(&line));
    ExitCode::SUCCESS
}
