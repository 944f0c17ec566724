//! Two same-seed traced runs of each workload (at test size) must report
//! the same work counts wherever those depend only on the op sequence.
//! Counts that depend on races between the two clients (plan-cache misses
//! from concurrent first compiles, cost-based plans) are not compared, and
//! neither are answer bytes: the plan notes credit duplicate rows to
//! whichever parallel walk ran first, and an integral float can render as
//! `4` or `4.0` depending on whether the execution context interned the
//! equal integer first. The answers' value checksums are compared instead.

use perfbench::{run, Options};

fn counts(workload: &str) -> Vec<(&'static str, u64)> {
    let out = run(&Options {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 0.6,
        trace: true,
        tiny: true,
        work_dir: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload),
    });
    let m = &out.measured;
    assert!(m.attempted > 0, "{workload}: nothing was checked");
    assert_eq!(m.failed, 0, "{workload}: {:?}", m.errors);
    let l = &out.layers;
    vec![
        ("wal.records", l.wal_records),
        ("wal.fsyncs", l.wal_fsyncs),
        ("checkpoint.count", l.checkpoints),
        ("recovery.replayed", l.replayed),
        ("release.source_triples_added", l.source_triples_added),
        ("release.mapping_triples_added", l.mapping_triples_added),
        ("rewrite.walks", l.counts.walks),
        ("exec.rows_out", l.counts.rows_out),
        ("ops.answer_checksum", l.counts.answer_checksum),
        ("wrappers.rows_scanned", l.counts.rows_scanned),
    ]
}

fn repeats(workload: &str) {
    let first = counts(workload);
    let second = counts(workload);
    assert_eq!(
        first, second,
        "{workload}: work counts differ between same-seed runs"
    );
    for (name, value) in &first {
        if !name.starts_with("release.") || workload != "hot_cached" {
            assert!(*value > 0, "{workload}: {name} is 0");
        }
    }
}

#[test]
fn hot_cached_counts_repeat() {
    repeats("hot_cached");
}

#[test]
fn analytic_scan_counts_repeat() {
    repeats("analytic_scan");
}

#[test]
fn evolve_ingest_counts_repeat() {
    repeats("evolve_ingest");
}
