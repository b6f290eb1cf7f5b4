//! A short run of every workload through the real binary: each must
//! finish, pass its output checks, and print every metric it promises.

use std::process::Command;

fn run(workload: &str, trace: bool) -> String {
    let workdir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--workdir")
        .arg(&workdir)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
        "{workload}: {last}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    last
}

const END_TO_END: [&str; 8] = [
    "setup_s",
    "peak_rss_mb",
    "sessions_per_s",
    "samples_per_s",
    "sample_age_p50_ms",
    "poll_p50_ms",
    "waveform_p50_ms",
    "reads_per_s",
];

#[test]
fn every_workload_passes_a_short_untraced_run() {
    for workload in ["ward_live", "chain_batch", "history_reads"] {
        let result = run(workload, false);
        for metric in END_TO_END {
            assert!(
                result.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{workload}: {metric}"
            );
        }
    }
}

#[test]
fn a_traced_run_balances_its_ledger() {
    let result = run("chain_batch", true);
    for metric in [
        "ledger.total_ns_per_sample",
        "ledger.unattributed_ns_per_sample",
        "ledger.attributed_frac",
        "trace.overhead_frac",
        "chip.packet_ns_per_sample",
        "store.append_ns_per_sample",
        "api.serve_overhead_p50_ms",
        "sample_age_p99_ms",
        "poll_p99_ms",
        "scrape_p99_ms",
        "waveform_p99_ms",
    ] {
        assert!(result.contains(&format!("\"{metric}\": ")), "{metric}");
    }
    assert!(!result.contains("\"sessions_per_s\""));
}
