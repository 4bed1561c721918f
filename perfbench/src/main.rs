//! The repository benchmark: four workloads driven in-process through the
//! library's public API, each checked for correct outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload trials-paper --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced replay of the same steps; the last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). `--workload all` runs every workload in its own child
//! process. See README.md for what each metric means on each workload.

mod converge;
mod serve;
mod stats;
mod trials;

use std::process::ExitCode;
use std::time::Duration;

use netdiag_obs::json::Json;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1` (zero
/// where the workload does not cross the layer).
pub const PER_LAYER: [(&str, &str); 43] = [
    ("topology.build_ms", "ms"),
    ("igp.spf_full_ms", "ms"),
    ("igp.settled_nodes", "count"),
    ("igp.delta_nodes", "count"),
    ("bgp.converge_for_ms", "ms"),
    ("bgp.converge_seq_ms", "ms"),
    ("bgp.converge_sharded_ms", "ms"),
    ("bgp.shard_gain", "ratio"),
    ("bgp.msgs", "count"),
    ("bgp.decisions", "count"),
    ("bgp.replay_prefixes", "count"),
    ("netsim.inject_us_p50", "us"),
    ("netsim.inject_us_p90", "us"),
    ("netsim.probe_mesh_us", "us"),
    ("netsim.probe_hops", "count"),
    ("netsim.restore_us", "us"),
    ("netsim.cow_breaks", "count"),
    ("netsim.redraw_share", "ratio"),
    ("experiments.prepare_ms", "ms"),
    ("experiments.memo_share", "ratio"),
    ("experiments.bridge_us", "us"),
    ("experiments.score_us", "us"),
    ("experiments.pool_speedup", "ratio"),
    ("experiments.pool_steals", "count"),
    ("core.problem_build_us", "us"),
    ("core.feed_us", "us"),
    ("core.greedy_us", "us"),
    ("core.nd_lg_us", "us"),
    ("core.words_scanned", "count"),
    ("core.greedy_iters", "count"),
    ("core.candidates_p50", "count"),
    ("core.report_us", "us"),
    ("serve.parse_light_us", "us"),
    ("serve.parse_upload_us", "us"),
    ("serve.ping_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.queue_depth_max", "count"),
    ("serve.rejected", "count"),
    ("serve.generator_late_ms", "ms"),
    ("serve.open_p50_ms", "ms"),
    ("serve.open_p99_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("obs.unattributed_share", "ratio"),
];

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "trials-paper",
    "trials-multilink",
    "serve-mixed",
    "converge-1k",
];

/// How one run is parameterized.
#[derive(Clone, Debug)]
pub struct RunCtx {
    /// Workload seed: every generated input follows from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Corrupt one output before it is checked, so the checks can be
    /// shown to fire (self-test only).
    pub tamper: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (trials, requests, convergences).
    pub attempted: u64,
    /// Failed or refused operations plus failed correctness checks.
    pub failed: u64,
    /// Metric name → value (units come from the metric tables).
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable context lines: sample counts, check results.
    pub notes: Vec<String>,
    /// Worker threads the program was given.
    pub threads: usize,
    /// Client connections the bench opened (0 for batch workloads).
    pub connections: usize,
}

impl Outcome {
    /// Records metric `name`.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a context note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts a correctness check; a failed one also counts into
    /// `failed`.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.note(format!(
            "check {what}: {}",
            if ok { "ok" } else { "FAILED" }
        ));
    }
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = match name {
        "trials-paper" => trials::run(&trials::Shape::paper(), ctx),
        "trials-multilink" => trials::run(&trials::Shape::multilink(), ctx),
        "serve-mixed" => serve::run(&serve::Shape::mixed(), ctx)?,
        "converge-1k" => converge::run(&converge::Shape::ases_1k(), ctx),
        other => return Err(format!("unknown workload {other:?}")),
    };
    fill_unmeasured(&mut out, ctx.trace);
    Ok(out)
}

/// Orders the outcome's metrics as the table for this mode lists them,
/// adding a zero for every per-layer metric the workload does not cross.
/// Panics when an end-to-end metric is missing or a metric is not in the
/// table.
pub fn fill_unmeasured(out: &mut Outcome, trace: bool) {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(table.len());
    for (name, _) in table {
        let value = out
            .metrics
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v);
        if value.is_none() && !trace {
            panic!("end-to-end metric {name} was not measured");
        }
        ordered.push((*name, value.unwrap_or(0.0)));
    }
    for (name, _) in &out.metrics {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not in the table"
        );
    }
    out.metrics = ordered;
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`. Non-finite values cannot be measurements, so
/// they are written as -1 (and counted as a failed check by `main`).
fn result_json(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        attempted.max(1),
        metrics.join(",")
    )
}

/// Identifies the measured source tree: the git revision when the
/// checkout has one, and always an FNV-1a digest of every crate source,
/// so results from different trees are never compared blind.
fn source_stamp() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let rev = git_rev(&root).unwrap_or_else(|| "none".to_owned());
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("rev={rev} src={h:016x}")
}

fn git_rev(root: &std::path::Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_owned)
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn print_outcome(workload: &str, ctx: &RunCtx, out: &Outcome) {
    println!(
        "# {workload} seed={} seconds={} trace={} nproc={} threads={} connections={} {}",
        ctx.seed,
        ctx.seconds.as_secs_f64(),
        u8::from(ctx.trace),
        stats::nproc(),
        out.threads,
        out.connections,
        source_stamp()
    );
    for note in &out.notes {
        println!("#   {note}");
    }
    for (name, value) in &out.metrics {
        println!("  {name:<26} {value:>16.6} {}", unit_of(name));
    }
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<26} {share:>16.6} ratio ({} failed of {} attempted)",
        "error_share", out.failed, out.attempted
    );
}

/// `--workload all`: every workload in its own child process (so each
/// peak RSS is its own), then one combined result line whose metrics are
/// named `<workload>.<metric>`.
fn run_all(ctx: &RunCtx) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &ctx.seed.to_string()])
            .args(["--seconds", &ctx.seconds.as_secs_f64().to_string()])
            .args(["--trace", if ctx.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let doc = netdiag_obs::json::parse(last)
            .map_err(|e| format!("{workload}: bad result line: {e}"))?;
        let num = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
        attempted += num("attempted");
        failed += num("failed");
        if !output.status.success() && num("failed") == 0 {
            failed += 1;
        }
        if let Some(Json::Obj(entries)) = doc.get("metrics") {
            for (name, m) in entries {
                let value = match m.get("value") {
                    Some(Json::Num(v)) => *v,
                    _ => f64::NAN,
                };
                metrics.push((format!("{workload}.{name}"), value, unit_of(name)));
            }
        }
        println!("{last}");
    }
    Ok(result_json(attempted, failed, &metrics))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: netdiag-perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = flag("--workload") else {
        return usage();
    };
    let (Ok(seed), Ok(seconds), Some(trace)) = (
        flag("--seed").unwrap_or("1").parse::<u64>(),
        flag("--seconds").unwrap_or("15").parse::<f64>(),
        match flag("--trace").unwrap_or("0") {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        },
    ) else {
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return usage();
    }
    let ctx = RunCtx {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        tamper: false,
    };
    if workload == "all" {
        return match run_all(&ctx) {
            Ok(line) => {
                println!("{line}");
                if line.starts_with("{\"correct\":true") {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut out = match run_workload(workload, &ctx) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return if WORKLOADS.contains(&workload) {
                ExitCode::FAILURE
            } else {
                usage()
            };
        }
    };
    let non_finite = out.metrics.iter().filter(|(_, v)| !v.is_finite()).count();
    if non_finite > 0 {
        out.check("every metric is a finite number", false);
    }
    print_outcome(workload, &ctx, &out);
    let metrics: Vec<(String, f64, &str)> = out
        .metrics
        .iter()
        .map(|&(name, value)| (name.to_owned(), value, unit_of(name)))
        .collect();
    println!("{}", result_json(out.attempted, out.failed, &metrics));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json names exactly the workloads and metrics (with
    /// units) this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let doc = netdiag_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(Json::as_str)
                        .expect("field")
                        .to_owned()
                })
                .collect()
        };
        let names = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|(n, _)| (*n).to_owned()).collect()
        };
        let units = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|(_, u)| (*u).to_owned()).collect()
        };
        assert_eq!(listed("workloads", "name"), WORKLOADS.to_vec());
        assert_eq!(listed("end_to_end", "name"), names(&END_TO_END));
        assert_eq!(listed("end_to_end", "unit"), units(&END_TO_END));
        assert_eq!(listed("per_layer", "name"), names(&PER_LAYER));
        assert_eq!(listed("per_layer", "unit"), units(&PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let line = result_json(10, 1, &[("setup_s".to_owned(), 0.5, "s")]);
        let doc = netdiag_obs::json::parse(&line).expect("result line parses");
        let Json::Obj(keys) = &doc else {
            panic!("result line is an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    }
}
