//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints one line per metric, then the result
//! object as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the traced variant and reports the
//! per-layer metrics, writing the span dump under `.bench_out/`.

use perfbench::{report, run, Options, WORKLOADS};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        work_dir: std::path::PathBuf::from("."),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                opts.workload = value.clone();
                true
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| opts.seconds = v).is_ok(),
            "--trace" => value.parse::<u8>().map(|v| opts.trace = v != 0).is_ok(),
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str())
        || !opts.seconds.is_finite()
        || opts.seconds <= 0.0
    {
        return usage();
    }
    let out = run(&opts);
    let mut lines = out.notes.clone();
    let metrics = if opts.trace {
        lines.extend(out.times.lines());
        if let Some(path) = &out.spans_path {
            lines.push(format!("  span dump: {}", path.display()));
        }
        report::per_layer(&out.measured, &out.layers, &out.times)
    } else {
        let metrics = report::end_to_end(&out.measured);
        if opts.workload == "hot_cached" {
            let (q, tail) = out.measured.query_ms.windowed_tail(report::TAIL_WINDOWS);
            lines.push(format!(
                "  latency limit: p{q} {tail:.3} ms against {} ms -> {}",
                report::HOT_LATENCY_LIMIT_MS,
                if tail <= report::HOT_LATENCY_LIMIT_MS {
                    "met"
                } else {
                    "MISSED"
                }
            ));
        }
        metrics
    };
    if opts.workload == "hot_cached" {
        let lateness = out.measured.lateness_ms.percentile(99.0);
        lines.push(format!(
            "  generator schedule: lateness p99 {lateness:.3} ms against {} ms -> run {}",
            report::LATENESS_LIMIT_MS,
            if lateness <= report::LATENESS_LIMIT_MS {
                "valid"
            } else {
                "INVALID (the generator could not keep its schedule)"
            }
        ));
    }
    let gated = (!opts.trace).then_some(&report::GATED[..]);
    report::print(&opts.workload, &metrics, gated, &out.measured, &lines);
    ExitCode::SUCCESS
}
