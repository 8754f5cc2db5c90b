//! `glove` — CLI entry point. Argument parsing only; the work happens in
//! [`glove_cli::commands`].

use glove_cli::commands::{self, AnonymizeOpts, StreamOpts};
use glove_core::{CarryPolicy, ResidualPolicy, ShardBy, UnderKPolicy};
use std::collections::HashMap;
use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
glove — k-anonymization of mobile traffic fingerprints (GLOVE, CoNEXT'15)

USAGE:
  glove synth      --preset NAME --users N [--seed S]
                   [--out FILE] [--events-out FILE]
                   presets: civ sen metro mixed flash corridor churn
                            longtail storm
  glove info       --in FILE
  glove audit      --in FILE --k K [--threads N]
  glove anonymize  --in FILE --out FILE --k K
                   [--suppress-space METERS] [--suppress-time MINUTES]
                   [--residual merge|suppress] [--threads N]
                   [--shards N] [--shard-by activity|spatial|two-level]
  glove stream     --in FILE --out-dir DIR --k K [--window MINUTES]
                   [--carry fresh|sticky] [--under-k suppress|defer]
                   [--suppress-space METERS] [--suppress-time MINUTES]
                   [--threads N] [--shards N] [--shard-by activity|spatial|two-level]
                   [--policy FILE]
  glove generalize --in FILE --out FILE --space METERS --time MINUTES
  glove w4m        --in FILE --out FILE --k K [--delta METERS]
  glove attack     --original FILE (--published FILE | --epochs-dir DIR)
                   [--points N] [--trials N] [--seed S]
                   [--noise-space METERS] [--noise-time MINUTES]
                   [--top L] [--threads N] [--report FILE] [--policy FILE]
  glove serve      --listen ADDR [--out-dir DIR] [--queue EVENTS]
                   [--retry-ms MS] [--port-file FILE] [--policy FILE]
  glove send       --addr ADDR --tenant NAME --in FILE [--batch N]
                   [--shed true]
                   [--k K] [--window MINUTES] [--carry fresh|sticky]
                   [--under-k suppress|defer] [--suppress-space METERS]
                   [--suppress-time MINUTES] [--threads N]
                   [--shards N] [--shard-by activity|spatial|two-level]
  glove send       --addr ADDR --shutdown true

Datasets and event streams are line-oriented text files (see `glove-cli`
docs). `glove stream` accepts either: event files replay with bounded
memory, dataset files are converted to their time-ordered event view.
The stream --out-dir is owned by the command: epoch-*.txt files from a
previous run are replaced.

`glove attack` runs the adversary subsystem: the multi-point linkage
attack (p known points with optional observation noise) and the top-L
location classifier against a published dataset, plus the cross-epoch
linkage adversary when --epochs-dir points at a `glove stream` output
directory. --report writes one RunReport JSON line per attack.

`--policy FILE` loads a JSON policy plane (cohort declarations plus
per-epoch/per-cohort overrides of k, window, carry, under-k and
suppression). `glove stream` resolves it per window; `glove serve` hands
it to every tenant session (tenants retune mid-run via RECONFIG); `glove
attack` uses its cohort declarations to break the cross-epoch adversary
down per cohort.

`glove serve` runs the multi-tenant ingest daemon: each tenant opened by a
`glove send` client is an isolated windowed engine with its own epoch
clock and `--out-dir/<tenant>/` epoch directory (same file format as
`glove stream`). Per-tenant queues are bounded: a full queue answers BUSY
(client retries) or, with `--shed`, drops the overflow into the shed
ledger reported in the tenant's final stats. The daemon runs until a
client sends `glove send --addr ADDR --shutdown true`; open sessions are
flushed, losing no accepted events.
";

/// A mistake on the command line: an unknown command, or a missing,
/// duplicate or unparsable option. The only error printed with the usage
/// text.
#[derive(Debug)]
struct UsageError(String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for UsageError {}

impl From<String> for UsageError {
    fn from(msg: String) -> Self {
        Self(msg)
    }
}

/// Splits `--key value` pairs into a map; returns an error message on
/// malformed input or duplicate keys.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, UsageError> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected an option, got '{arg}'"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("option --{key} needs a value"))?;
        if map.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("duplicate option --{key}").into());
        }
    }
    Ok(map)
}

fn required<'m>(flags: &'m HashMap<String, String>, key: &str) -> Result<&'m str, UsageError> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required option --{key}").into())
}

fn parse_num<T: std::str::FromStr>(value: &str, key: &str) -> Result<T, UsageError> {
    value
        .parse()
        .map_err(|_| format!("option --{key}: cannot parse '{value}'").into())
}

/// `--threads N` (0 = all cores; default 0), shared by every heavy command.
fn parse_threads(flags: &HashMap<String, String>) -> Result<usize, UsageError> {
    Ok(flags
        .get("threads")
        .map(|s| parse_num::<usize>(s, "threads"))
        .transpose()?
        .unwrap_or(0))
}

/// `--suppress-space METERS` / `--suppress-time MINUTES`, shared by
/// `anonymize` and `stream`.
fn parse_suppression(
    flags: &HashMap<String, String>,
) -> Result<(Option<u32>, Option<u32>), UsageError> {
    let space = flags
        .get("suppress-space")
        .map(|s| parse_num::<u32>(s, "suppress-space"))
        .transpose()?;
    let time = flags
        .get("suppress-time")
        .map(|s| parse_num::<u32>(s, "suppress-time"))
        .transpose()?;
    Ok((space, time))
}

/// `--policy FILE`: a JSON policy plane, validated on load.
fn parse_policy(
    flags: &HashMap<String, String>,
) -> Result<Option<glove_core::policy::PolicyPlane>, String> {
    let Some(path) = flags.get("policy") else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("option --policy: cannot read '{path}': {e}"))?;
    glove_core::policy::PolicyPlane::from_json(&text)
        .map(Some)
        .map_err(|e| format!("option --policy: {e}"))
}

/// `--shards N` / `--shard-by activity|spatial|two-level` with their coupling rules,
/// shared by `anonymize` and `stream`.
fn parse_sharding(flags: &HashMap<String, String>) -> Result<(Option<usize>, ShardBy), UsageError> {
    let shards = flags
        .get("shards")
        .map(|s| parse_num::<usize>(s, "shards"))
        .transpose()?;
    if shards == Some(0) {
        return Err(UsageError("--shards must be at least 1".into()));
    }
    let shard_by = match flags.get("shard-by") {
        None => ShardBy::Activity,
        Some(value) => {
            if shards.is_none() {
                return Err(UsageError("--shard-by requires --shards".into()));
            }
            value
                .parse::<ShardBy>()
                .map_err(|e| format!("--shard-by: {e}"))?
        }
    };
    Ok((shards, shard_by))
}

fn run() -> Result<String, Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return Err(UsageError("no command given".into()).into());
    };
    let flags = parse_flags(rest)?;

    match command.as_str() {
        "synth" => {
            let preset = required(&flags, "preset")?;
            let users: usize = parse_num(required(&flags, "users")?, "users")?;
            let seed = flags
                .get("seed")
                .map(|s| parse_num::<u64>(s, "seed"))
                .transpose()?;
            let out = flags.get("out").map(PathBuf::from);
            let events_out = flags.get("events-out").map(PathBuf::from);
            // commands::synth rejects the no-output case with its own error.
            commands::synth(preset, users, seed, out.as_deref(), events_out.as_deref())
        }
        "info" => {
            let input = PathBuf::from(required(&flags, "in")?);
            commands::info(&input)
        }
        "audit" => {
            let input = PathBuf::from(required(&flags, "in")?);
            let k: usize = parse_num(required(&flags, "k")?, "k")?;
            let threads = parse_threads(&flags)?;
            commands::audit(&input, k, threads)
        }
        "anonymize" => {
            let input = PathBuf::from(required(&flags, "in")?);
            let out = PathBuf::from(required(&flags, "out")?);
            let k: usize = parse_num(required(&flags, "k")?, "k")?;
            let (suppress_space_m, suppress_time_min) = parse_suppression(&flags)?;
            let residual = flags
                .get("residual")
                .map(|s| s.parse::<ResidualPolicy>())
                .transpose()
                .map_err(|e| UsageError(format!("--residual: {e}")))?
                .unwrap_or_default();
            let threads = parse_threads(&flags)?;
            let (shards, shard_by) = parse_sharding(&flags)?;
            let opts = AnonymizeOpts {
                k,
                suppress_space_m,
                suppress_time_min,
                residual,
                threads,
                shards,
                shard_by,
            };
            commands::anonymize_cmd(&input, &out, &opts)
        }
        "stream" => {
            let input = PathBuf::from(required(&flags, "in")?);
            let out_dir = PathBuf::from(required(&flags, "out-dir")?);
            let k: usize = parse_num(required(&flags, "k")?, "k")?;
            let window_min = flags
                .get("window")
                .map(|s| parse_num::<u32>(s, "window"))
                .transpose()?
                .unwrap_or(1_440);
            let carry = flags
                .get("carry")
                .map(|s| s.parse::<CarryPolicy>())
                .transpose()
                .map_err(|e| UsageError(format!("--carry: {e}")))?
                .unwrap_or_default();
            let under_k = flags
                .get("under-k")
                .map(|s| s.parse::<UnderKPolicy>())
                .transpose()
                .map_err(|e| UsageError(format!("--under-k: {e}")))?
                .unwrap_or_default();
            let (suppress_space_m, suppress_time_min) = parse_suppression(&flags)?;
            let threads = parse_threads(&flags)?;
            let (shards, shard_by) = parse_sharding(&flags)?;
            let opts = StreamOpts {
                k,
                window_min,
                carry,
                under_k,
                suppress_space_m,
                suppress_time_min,
                threads,
                shards,
                shard_by,
                policy: parse_policy(&flags)?,
            };
            commands::stream_cmd(&input, &out_dir, &opts)
        }
        "generalize" => {
            let input = PathBuf::from(required(&flags, "in")?);
            let out = PathBuf::from(required(&flags, "out")?);
            let space: u32 = parse_num(required(&flags, "space")?, "space")?;
            let time: u32 = parse_num(required(&flags, "time")?, "time")?;
            commands::generalize_cmd(&input, &out, space, time)
        }
        "w4m" => {
            let input = PathBuf::from(required(&flags, "in")?);
            let out = PathBuf::from(required(&flags, "out")?);
            let k: usize = parse_num(required(&flags, "k")?, "k")?;
            let delta = flags
                .get("delta")
                .map(|s| parse_num::<f64>(s, "delta"))
                .transpose()?
                .unwrap_or(2_000.0);
            commands::w4m_cmd(&input, &out, k, delta)
        }
        "attack" => {
            let original = PathBuf::from(required(&flags, "original")?);
            let published = flags.get("published").map(PathBuf::from);
            let epochs_dir = flags.get("epochs-dir").map(PathBuf::from);
            let report = flags.get("report").map(PathBuf::from);
            let defaults = commands::AttackOpts::default();
            let parse_or = |key: &str, fallback: usize| -> Result<usize, UsageError> {
                flags
                    .get(key)
                    .map(|s| parse_num::<usize>(s, key))
                    .transpose()
                    .map(|v| v.unwrap_or(fallback))
            };
            let opts = commands::AttackOpts {
                points: parse_or("points", defaults.points)?,
                trials: parse_or("trials", defaults.trials)?,
                seed: flags
                    .get("seed")
                    .map(|s| parse_num::<u64>(s, "seed"))
                    .transpose()?
                    .unwrap_or(defaults.seed),
                noise_space_m: flags
                    .get("noise-space")
                    .map(|s| parse_num::<u32>(s, "noise-space"))
                    .transpose()?
                    .unwrap_or(defaults.noise_space_m),
                noise_time_min: flags
                    .get("noise-time")
                    .map(|s| parse_num::<u32>(s, "noise-time"))
                    .transpose()?
                    .unwrap_or(defaults.noise_time_min),
                top_l: parse_or("top", defaults.top_l)?,
                threads: parse_threads(&flags)?,
                cohorts: parse_policy(&flags)?
                    .map(|plane| plane.cohorts)
                    .unwrap_or_default(),
            };
            commands::attack_cmd(
                &original,
                published.as_deref(),
                epochs_dir.as_deref(),
                report.as_deref(),
                &opts,
            )
        }
        "serve" => {
            let opts = commands::ServeOpts {
                listen: required(&flags, "listen")?.to_string(),
                out_dir: flags.get("out-dir").map(PathBuf::from),
                queue: flags
                    .get("queue")
                    .map(|s| parse_num::<usize>(s, "queue"))
                    .transpose()?
                    .unwrap_or(4096),
                retry_ms: flags
                    .get("retry-ms")
                    .map(|s| parse_num::<u32>(s, "retry-ms"))
                    .transpose()?
                    .unwrap_or(25),
                port_file: flags.get("port-file").map(PathBuf::from),
                policy: parse_policy(&flags)?,
            };
            if opts.queue == 0 {
                return Err(UsageError("--queue must be at least 1".into()).into());
            }
            commands::serve_cmd(&opts)
        }
        "send" => {
            let addr = required(&flags, "addr")?.to_string();
            if flags.contains_key("shutdown") {
                return commands::shutdown_cmd(&addr);
            }
            let input = PathBuf::from(required(&flags, "in")?);
            let k: usize = flags
                .get("k")
                .map(|s| parse_num::<usize>(s, "k"))
                .transpose()?
                .unwrap_or(2);
            let window_min = flags
                .get("window")
                .map(|s| parse_num::<u32>(s, "window"))
                .transpose()?
                .unwrap_or(1_440);
            let carry = flags
                .get("carry")
                .map(|s| s.parse::<CarryPolicy>())
                .transpose()
                .map_err(|e| UsageError(format!("--carry: {e}")))?
                .unwrap_or_default();
            let under_k = flags
                .get("under-k")
                .map(|s| s.parse::<UnderKPolicy>())
                .transpose()
                .map_err(|e| UsageError(format!("--under-k: {e}")))?
                .unwrap_or_default();
            let (suppress_space_m, suppress_time_min) = parse_suppression(&flags)?;
            let threads = parse_threads(&flags)?;
            let (shards, shard_by) = parse_sharding(&flags)?;
            let opts = commands::SendOpts {
                addr,
                tenant: required(&flags, "tenant")?.to_string(),
                stream: StreamOpts {
                    k,
                    window_min,
                    carry,
                    under_k,
                    suppress_space_m,
                    suppress_time_min,
                    threads,
                    shards,
                    shard_by,
                    policy: None,
                },
                batch: flags
                    .get("batch")
                    .map(|s| parse_num::<usize>(s, "batch"))
                    .transpose()?
                    .unwrap_or(512),
                shed: match flags.get("shed").map(String::as_str) {
                    None | Some("false") => false,
                    Some("true") => true,
                    Some(other) => {
                        let msg = format!("--shed must be true|false, got '{other}'");
                        return Err(UsageError(msg).into());
                    }
                },
            };
            if opts.batch == 0 {
                return Err(UsageError("--batch must be at least 1".into()).into());
            }
            commands::send_cmd(&input, &opts)
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(UsageError(format!("unknown command '{other}'")).into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) if e.is::<UsageError>() => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
        // A failed run (an unsatisfiable k, an unreadable or malformed
        // input, a failed epoch write) is no misuse of the command line:
        // the usage text would bury the error.
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
