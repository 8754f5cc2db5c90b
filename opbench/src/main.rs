//! `opbench` — the operator-path benchmark of the GLOVE workspace.
//!
//! ```text
//! opbench --workload <release-sharded|serve-backfill>
//!         --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from `--seed` before any timing, measures
//! for about `--seconds` seconds, checks every output, and prints as its
//! last stdout line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end metrics;
//! with `--trace 1` they are the per-layer metrics of a traced run, whose
//! spans are also written to `.opbench_out/`. README.md says why each
//! workload exists and which layer should move which end-to-end metric.

mod kernels;
mod probe;
mod release;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("release_s", "s"),
    ("ingest_events_per_s", "events/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("retention", "share"),
    ("pos_accuracy_m", "m"),
    ("time_accuracy_min", "min"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer a workload leaves idle reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.read_file_s", "s"),
    ("io.write_file_s", "s"),
    ("io.release_bytes", "bytes"),
    ("io.event_read_s", "s"),
    ("shard.partition_s", "s"),
    ("shard.max_s", "s"),
    ("shard.skew", "ratio"),
    ("glove.run_s", "s"),
    ("glove.candidate_pairs", "count"),
    ("glove.pairs_computed", "count"),
    ("glove.pairs_tier0", "count"),
    ("glove.pairs_tier1", "count"),
    ("glove.pairs_abandoned", "count"),
    ("glove.merges", "count"),
    ("glove.pairs_per_s", "pairs/s"),
    ("compact.signature_build_s", "s"),
    ("ledger.peak_arena_mb", "MiB"),
    ("ledger.peak_store_mb", "MiB"),
    ("stretch.kernel_pairs_per_s", "pairs/s"),
    ("stretch.hull_build_s", "s"),
    ("suppress.samples", "count"),
    ("reshape.samples", "count"),
    ("stream.epoch_engine_p50_ms", "ms"),
    ("stream.epoch_engine_tail_ms", "ms"),
    ("stream.engine_s", "s"),
    ("stream.flush_s", "s"),
    ("stream.epochs", "count"),
    ("stream.pairs_computed", "count"),
    ("stream.pairs_pruned", "count"),
    ("stream.peak_resident_samples", "count"),
    ("protocol.encode_us", "us"),
    ("serve.ack_rtt_p50_ms", "ms"),
    ("serve.ack_rtt_tail_ms", "ms"),
    ("serve.busy_replies", "count"),
    ("serve.busy_sleep_s", "s"),
    ("serve.epoch_write_ms", "ms"),
    ("serve.engine_share", "share"),
    ("host.alu_ms", "ms"),
    ("host.chase_ns", "ns"),
    ("host.steal_pct", "%"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: &[&str] = &["release-sharded", "serve-backfill"];

/// Everything a workload needs from the command line and the harness.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for generated inputs and outputs, removed at exit.
    pub tmp: PathBuf,
    pub tracer: Arc<trace::Tracer>,
}

impl Ctx {
    /// The synthetic scenario seed for `--seed`, decorrelated per input so
    /// neighbouring seeds give unrelated datasets.
    pub fn scenario_seed(&self, salt: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (releases, frames, batches, epochs).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Every failed check, in words.
    pub problems: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Filled only by traced runs.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check_all(1, u64::from(!ok), what);
    }

    /// Records `attempted` checked operations of which `failed` failed,
    /// with one problem line describing the failures.
    pub fn check_all(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems.push(what());
        }
    }

    /// Records a check on the run as a whole (not an operation).
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Sets every per-layer metric to 0, the reading of a layer the workload
/// leaves idle; the workload then overwrites the layers it exercises.
pub fn zero_layers(layers: &mut BTreeMap<&'static str, f64>) {
    for (name, _) in PER_LAYER {
        layers.entry(name).or_insert(0.0);
    }
}

/// Runs `body` until the time budget is spent: at least `min` iterations,
/// and another only while it is expected to end within `seconds`.
pub fn repeat_for(
    seconds: f64,
    min: usize,
    mut body: impl FnMut(u32) -> Result<(), String>,
) -> Result<u32, String> {
    let started = Instant::now();
    let mut done = 0u32;
    loop {
        body(done)?;
        done += 1;
        let spent = started.elapsed().as_secs_f64();
        let per = spent / f64::from(done);
        if done as usize >= min && spent + per > seconds {
            return Ok(done);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Renders the final result line, refusing a metric set that differs from
/// the declared list or a value that is not a finite number.
fn result_line(
    outcome: &Outcome,
    declared: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, unit) in declared {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = values
        .keys()
        .find(|k| !declared.iter().any(|(name, _)| name == *k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        parts.join(", ")
    ))
}

fn run(args: Args) -> Result<String, String> {
    let noise = probe::host_noise();
    println!(
        "host noise: alu loop {:.2} ms, 8 MiB pointer chase {:.1} ns/load; {} cpus",
        noise.alu_ms,
        noise.chase_ns,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let tmp =
        PathBuf::from(".opbench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tmp,
        tracer: Arc::new(trace::Tracer::new()),
    };
    let ticks = probe::cpu_ticks();
    let result = match ctx.workload.as_str() {
        "release-sharded" => release::run(&ctx),
        _ => serve::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    // Removes the scratch root only once no other run is using it.
    let _ = std::fs::remove_dir(".opbench_tmp");
    let mut outcome = result?;
    let steal_pct = match (ticks, probe::cpu_ticks()) {
        (Some(from), Some(to)) => probe::steal_pct(from, to),
        _ => 0.0,
    };
    println!("host noise: {steal_pct:.2} % of CPU time stolen by the hypervisor during the run");

    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!(
        "checks: {} operations attempted, {} failed, {} problems",
        outcome.attempted,
        outcome.failed,
        outcome.problems.len()
    );
    if ctx.trace {
        outcome.layers.insert("host.alu_ms", noise.alu_ms);
        outcome.layers.insert("host.chase_ns", noise.chase_ns);
        outcome.layers.insert("host.steal_pct", steal_pct);
        let spans = PathBuf::from(".opbench_out")
            .join(format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed));
        ctx.tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        println!("layer self times (spans in {}):", spans.display());
        for (name, t) in ctx.tracer.layers() {
            println!(
                "  {name:<24} count {:>6}  total {:>10.4} s  self {:>10.4} s",
                t.count, t.total_s, t.self_s
            );
        }
        for (name, unit) in PER_LAYER {
            if let Some(v) = outcome.layers.get(name) {
                println!("  layer {name:<30} {v:>16.6} {unit}");
            }
        }
        result_line(&outcome, PER_LAYER, &outcome.layers)
    } else {
        for (name, unit) in END_TO_END {
            if let Some(v) = outcome.end_to_end.get(name) {
                println!("  {name:<24} {v:>16.6} {unit}");
            }
        }
        result_line(&outcome, END_TO_END, &outcome.end_to_end)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("opbench: {e}");
            eprintln!(
                "usage: opbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("opbench: {e}");
            std::process::exit(1);
        }
    }
}
