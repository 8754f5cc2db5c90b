//! `serve-backfill`: operator path 2, a recorded event file streamed by
//! `glove send`'s client library into an in-process `glove serve` daemon
//! configured as `serve_cmd` configures it (the `io::write_file` epoch
//! writer into a temporary out-dir, queue 4096, retry 25 ms,
//! backpressure). Each replay gets a fresh daemon with exactly one tenant.
//!
//! The loop is closed: `glove_cli::net::send_file` sends the next 512-event
//! batch only once the previous one is accepted, honouring `BUSY`. Daily
//! windows with 2 engine threads make 14 arenas of about 1,500 subscribers
//! that take nearly all of the wall time, so bulk ingest under
//! backpressure is measured.

use crate::stats::{median, percentile, Pct};
use crate::trace::Tracer;
use crate::{kernels, probe, repeat_for, Ctx, Outcome};
use glove_cli::{io, net};
use glove_core::accuracy::{position_accuracy_m, time_accuracy_min};
use glove_core::api::RunReport;
use glove_core::config::{
    CarryPolicy, GloveConfig, StreamConfig, SuppressionThresholds, UnderKPolicy,
};
use glove_core::policy::PolicyPlane;
use glove_core::stream::{run_stream, StreamEvent, StreamStats};
use glove_core::{Dataset, Fingerprint};
use glove_serve::{encode_frame, Client, EpochWriteFn, Frame, ServeOptions, Server, ServerHandle};
use glove_synth::{ScenarioConfig, ScenarioEvents};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const USERS: usize = 2_000;
const K: usize = 2;
const QUEUE: usize = 4_096;
const RETRY_MS: u32 = 25;
/// Daemon bind → `HELLO_OK` cycles timed for `setup_s` before each replay
/// and after the last (each is well under a millisecond, so one run
/// repeats it many times).
const SETUP_CHUNK: usize = 60;
const WINDOW_MIN: u32 = 1_440;
const THREADS: usize = 2;
const BATCH: usize = 512;
/// Replays whose epochs are pooled for the per-epoch percentiles of the
/// traced run: a fixed pool, so every run takes them at the same level over
/// the same sample count however many replays fit in the run.
const POOL_REPLAYS: usize = 2;

fn stream_config() -> StreamConfig {
    StreamConfig {
        window_min: WINDOW_MIN,
        carry: CarryPolicy::Fresh,
        under_k: UnderKPolicy::Suppress,
        glove: GloveConfig {
            k: K,
            suppression: SuppressionThresholds::table2(),
            threads: THREADS,
            ..GloveConfig::default()
        },
    }
}

/// Distinct (window, subscriber) slices of a stream: every one must end
/// up either in a published epoch or in the under-k ledger.
fn window_slices(events: &[StreamEvent]) -> u64 {
    let mut slices: Vec<(u32, u32)> = events
        .iter()
        .map(|e| (e.sample.t / WINDOW_MIN, e.user))
        .collect();
    slices.sort_unstable();
    slices.dedup();
    slices.len() as u64
}

/// One fingerprint per (window, subscriber) slice: the arena members the
/// stream engine builds, for the standalone kernel probes.
fn window_fingerprints(events: &[StreamEvent]) -> Result<Vec<Fingerprint>, String> {
    let mut keyed: Vec<(u32, u32, glove_core::Sample)> = events
        .iter()
        .map(|e| (e.sample.t / WINDOW_MIN, e.user, e.sample))
        .collect();
    keyed.sort_by_key(|&(w, u, s)| (w, u, s.t));
    let mut out = Vec::new();
    for slice in keyed.chunk_by(|a, b| a.0 == b.0 && a.1 == b.1) {
        let samples = slice.iter().map(|&(_, _, s)| s).collect();
        out.push(Fingerprint::new(slice[0].1, samples).map_err(|e| e.to_string())?);
    }
    Ok(out)
}

/// Timed epoch writes of one daemon, in epoch order.
#[derive(Default)]
struct WriteLog(Mutex<Vec<(Instant, Instant)>>);

struct Daemon {
    handle: ServerHandle,
    writes: Arc<WriteLog>,
}

impl Daemon {
    /// Binds and starts a daemon whose epoch writer is `io::write_file`,
    /// timed from outside. Epoch-write spans are recorded under the span
    /// id held in `parent` when the write happens.
    fn spawn(
        out_dir: PathBuf,
        tracer: &Arc<Tracer>,
        parent: &Arc<AtomicU64>,
        run: u32,
    ) -> Result<Daemon, String> {
        let writes = Arc::new(WriteLog::default());
        let writer: Arc<EpochWriteFn> = {
            let (writes, tracer, parent) =
                (Arc::clone(&writes), Arc::clone(tracer), Arc::clone(parent));
            Arc::new(move |ds: &Dataset, path: &Path| {
                let start = Instant::now();
                let result = io::write_file(ds, path);
                let end = Instant::now();
                writes
                    .0
                    .lock()
                    .expect("write log poisoned")
                    .push((start, end));
                let parent = Some(parent.load(Ordering::SeqCst));
                tracer.record(tracer.open(), parent, "serve.epoch_write", run, start, end);
                result
            })
        };
        let server = Server::bind(
            "127.0.0.1:0",
            ServeOptions {
                out_dir: Some(out_dir),
                queue_events: QUEUE,
                retry_ms: RETRY_MS,
                epoch_writer: Some(writer),
                policy: PolicyPlane::uniform(),
            },
        )
        .map_err(|e| format!("binding the daemon: {e}"))?;
        let handle = server
            .spawn()
            .map_err(|e| format!("starting the daemon: {e}"))?;
        Ok(Daemon { handle, writes })
    }

    /// Shuts the daemon down over the wire, waits for it, and returns the
    /// timed epoch writes; a session that failed inside it is an error.
    fn stop(self) -> Result<Vec<(Instant, Instant)>, String> {
        glove_serve::client::shutdown(self.handle.addr())
            .map_err(|e| format!("shutting the daemon down: {e}"))?;
        let summary = self.handle.join();
        if let Some((tenant, cause)) = summary.failures.first() {
            return Err(format!("tenant {tenant} failed inside the daemon: {cause}"));
        }
        let writes = std::mem::take(&mut *self.writes.0.lock().expect("write log poisoned"));
        Ok(writes)
    }
}

/// `setup_s` samples: daemon bind → `HELLO_OK`, each on a fresh daemon.
/// Cycles run in chunks spread through the measured phase, so the median
/// sees the whole run's host conditions rather than one fraction of a
/// second of them. Every cycle opens the same tenant, whose directory
/// exists after the first: creating a directory costs about as much as the
/// rest of the cycle on some filesystems and varies far more, which would
/// hide the daemon's own set-up work.
fn measure_setup(ctx: &Ctx, config: StreamConfig) -> Result<Vec<f64>, String> {
    let dir = ctx.tmp.join("setup");
    let parent = Arc::new(AtomicU64::new(0));
    (0..SETUP_CHUNK)
        .map(|_| {
            let start = Instant::now();
            let daemon = Daemon::spawn(dir.clone(), &ctx.tracer, &parent, 0)?;
            let mut client =
                Client::connect(daemon.handle.addr()).map_err(|e| format!("connect: {e}"))?;
            client
                .hello("setup", config, false)
                .map_err(|e| format!("HELLO: {e}"))?;
            let elapsed = start.elapsed().as_secs_f64();
            client.close().map_err(|e| format!("CLOSE: {e}"))?;
            daemon.stop()?;
            Ok(elapsed)
        })
        .collect()
}

/// What the epoch files of one tenant directory hold.
#[derive(Default)]
struct Published {
    files: u64,
    users: u64,
    bytes: u64,
    not_k_anonymous: Vec<String>,
    pos_sum: f64,
    time_sum: f64,
    user_samples: u64,
}

fn read_epochs(dir: &Path) -> Result<Published, String> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("listing {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("epoch-") && n.ends_with(".txt"))
        })
        .collect();
    names.sort();
    let mut out = Published::default();
    for path in names {
        let ds = io::read_file(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        out.files += 1;
        out.users += ds.num_users() as u64;
        out.bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        if !ds.is_k_anonymous(K) {
            out.not_k_anonymous.push(path.display().to_string());
        }
        let pos = position_accuracy_m(&ds);
        out.user_samples += pos.len() as u64;
        out.pos_sum += pos.iter().sum::<f64>();
        out.time_sum += time_accuracy_min(&ds).iter().sum::<f64>();
    }
    Ok(out)
}

/// The deterministic part of a stream run's statistics: everything but
/// wall-clock times and process RSS.
fn exact_counters(s: &StreamStats) -> Vec<u64> {
    let mut v = vec![
        s.events,
        s.epochs,
        s.peak_resident_fingerprints as u64,
        s.peak_resident_samples as u64,
        s.merges,
        s.pairs_computed,
        s.pairs_pruned,
        s.pairs_skipped_tier0,
        s.pairs_skipped_tier1,
        s.pairs_abandoned,
        s.suppressed_users,
        s.suppressed_samples,
        s.shed_events,
        s.ledger.peak_arena_bytes,
        s.ledger.peak_store_bytes,
    ];
    for e in &s.per_epoch {
        v.extend([
            e.epoch,
            e.window_start_min,
            e.users_in as u64,
            e.groups_out as u64,
            e.merges,
            e.pairs_computed,
            e.pairs_pruned,
        ]);
    }
    v
}

/// The serve exactness anchor: the served run's exact counters equal a
/// direct `run_stream` over the same events. Returns the reshaped-sample
/// count of the direct run (the daemon's report does not carry it).
fn check_anchor(
    outcome: &mut Outcome,
    name: &str,
    events: &[StreamEvent],
    config: StreamConfig,
    served: &StreamStats,
) -> Result<u64, String> {
    let direct = run_stream(name, events.iter().copied(), config)
        .map_err(|e| format!("direct run_stream: {e}"))?;
    let same = exact_counters(&direct.stats) == exact_counters(served);
    outcome.require(same, || {
        "served stream statistics differ from a direct run_stream over the same events".into()
    });
    println!(
        "exactness anchor: served run {} a direct run_stream ({} epochs, {} merges)",
        if same { "equals" } else { "DIFFERS FROM" },
        direct.stats.epochs,
        direct.stats.merges
    );
    Ok(direct
        .epochs
        .iter()
        .map(|e| e.output.stats.reshaped_samples)
        .sum())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn pct(samples: &[f64], q: f64, what: &str) -> Result<Pct, String> {
    percentile(samples, q).ok_or_else(|| {
        format!(
            "{} {what} samples: too few for p{}",
            samples.len(),
            q * 100.0
        )
    })
}

fn stream_stats(report: &RunReport) -> Result<StreamStats, String> {
    report
        .detail
        .as_stream()
        .cloned()
        .ok_or_else(|| "the daemon's report carries no stream statistics".to_string())
}

/// What one replay measured.
struct Replay {
    release_s: f64,
    accepted: u64,
    busy: u64,
    write_ms: Vec<f64>,
    report: RunReport,
    stats: StreamStats,
    published: Published,
}

fn replay(
    ctx: &Ctx,
    events: &Path,
    run: u32,
    config: StreamConfig,
    offered: u64,
    slices: u64,
    outcome: &mut Outcome,
) -> Result<Replay, String> {
    let tracer = &ctx.tracer;
    let root = tracer.open();
    let parent = Arc::new(AtomicU64::new(root));
    let out_dir = ctx.tmp.join(format!("backfill-{run}"));
    let daemon = tracer.span("daemon.spawn", Some(root), run, || {
        Daemon::spawn(out_dir.clone(), tracer, &parent, run)
    })?;
    let send = tracer.open();
    parent.store(send, Ordering::SeqCst);
    let started = Instant::now();
    let summary = net::send_file(
        daemon.handle.addr(),
        "backfill",
        events,
        config,
        false,
        BATCH,
    )
    .map_err(|e| format!("replay {run}: send_file: {e}"))?;
    let done = Instant::now();
    tracer.record(send, Some(root), "net.send_file", run, started, done);
    tracer.record(root, None, "replay", run, started, done);
    let writes = tracer.span("daemon.shutdown", None, run, || daemon.stop())?;
    let stats = stream_stats(&summary.report)?;
    let published = read_epochs(&out_dir.join("backfill"))?;

    // Every batch, every epoch file and the replay as a whole are checked:
    // served events equal the events offered with nothing shed, every
    // epoch file is k-anonymous, the counts of epoch files, `EPOCH` pushes
    // and reported epochs agree, and every (window, subscriber) slice is
    // either published or booked as under-k.
    let batches = offered.div_ceil(BATCH as u64);
    let whole = summary.accepted == offered && stats.events == offered && summary.shed == 0;
    outcome.check_all(batches, if whole { 0 } else { batches }, || {
        format!(
            "replay {run}: {} of {offered} events accepted, {} served, {} shed",
            summary.accepted, stats.events, summary.shed
        )
    });
    outcome.check_all(
        published.files,
        published.not_k_anonymous.len() as u64,
        || {
            format!(
                "replay {run}: not {K}-anonymous: {}",
                published.not_k_anonymous.join(", ")
            )
        },
    );
    let pushes = summary.epochs.len() as u64;
    outcome.check(
        published.files == stats.epochs && pushes == stats.epochs,
        || {
            format!(
                "replay {run}: {} epoch files, {pushes} EPOCH pushes, {} reported epochs",
                published.files, stats.epochs
            )
        },
    );
    outcome.check(published.users + stats.suppressed_users == slices, || {
        format!(
            "replay {run}: {} published + {} under-k subscriber slices, expected {slices}",
            published.users, stats.suppressed_users
        )
    });

    let write_ms: Vec<f64> = writes.iter().map(|(a, b)| ms(*b - *a)).collect();
    Ok(Replay {
        release_s: (done - started).as_secs_f64(),
        accepted: summary.accepted,
        busy: summary.busy_retries,
        write_ms,
        report: summary.report,
        stats,
        published,
    })
}

/// `EVENTS` → `EVENTS_OK` round trips of one more replay, sent batch by
/// batch through `Client::send_batch` (the call `send_file` makes per
/// batch). Batches that met `BUSY` include its back-off and are left out.
fn ack_rtt_ms(ctx: &Ctx, events: &[StreamEvent], config: StreamConfig) -> Result<Vec<f64>, String> {
    let parent = Arc::new(AtomicU64::new(0));
    let daemon = Daemon::spawn(ctx.tmp.join("ack"), &ctx.tracer, &parent, 0)?;
    let mut client = Client::connect(daemon.handle.addr()).map_err(|e| format!("connect: {e}"))?;
    client
        .hello("ack", config, false)
        .map_err(|e| format!("HELLO: {e}"))?;
    let mut rtt = Vec::new();
    for batch in events.chunks(BATCH) {
        let start = Instant::now();
        let sent = client
            .send_batch(batch)
            .map_err(|e| format!("EVENTS: {e}"))?;
        if sent.busy_retries == 0 {
            rtt.push(ms(start.elapsed()));
        }
    }
    client.flush().map_err(|e| format!("FLUSH: {e}"))?;
    client.close().map_err(|e| format!("CLOSE: {e}"))?;
    daemon.stop()?;
    Ok(rtt)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut cfg = ScenarioConfig::metro_like(USERS);
    cfg.seed = ctx.scenario_seed(3);
    let name = cfg.name.clone();
    let events: Vec<StreamEvent> = ScenarioEvents::new(&cfg).collect();
    let offered = events.len() as u64;
    let path = ctx.tmp.join("events.txt");
    io::write_events_file(&name, events.iter().copied(), &path)
        .map_err(|e| format!("writing the event file: {e}"))?;
    let config = stream_config();
    let slices = window_slices(&events);
    println!(
        "input: {offered} events in an event file, generated in {:.2} s",
        started.elapsed().as_secs_f64()
    );
    probe::reset_peak_rss().map_err(|e| format!("resetting VmHWM: {e}"))?;

    let mut outcome = Outcome::default();
    let mut setup = Vec::new();
    let mut runs: Vec<(bool, Replay)> = Vec::new();
    // A traced run alternates untraced and traced replays so the
    // difference between the two is the tracing overhead; its pool of
    // replays holds one of each.
    let min_replays = if ctx.trace { POOL_REPLAYS } else { 1 };
    repeat_for(ctx.seconds, min_replays, |i| {
        setup.extend(measure_setup(ctx, config)?);
        let traced = ctx.trace && i % 2 == 1;
        ctx.tracer.set_enabled(traced);
        let replay = replay(ctx, &path, i, config, offered, slices, &mut outcome);
        ctx.tracer.set_enabled(false);
        runs.push((traced, replay?));
        Ok(())
    })?;
    setup.extend(measure_setup(ctx, config)?);
    let peak_rss_mb = probe::peak_rss_mib()?;

    let untraced: Vec<&Replay> = runs.iter().filter(|r| !r.0).map(|r| &r.1).collect();
    let release = median(&untraced.iter().map(|r| r.release_s).collect::<Vec<_>>());
    let busy: u64 = runs.iter().map(|r| r.1.busy).sum();
    println!(
        "{} replays: {:.3?} s; median {release:.3} s, {:.0} events/s, {busy} BUSY retries",
        runs.len(),
        runs.iter().map(|r| r.1.release_s).collect::<Vec<_>>(),
        offered as f64 / release,
    );
    let last = &runs.last().expect("at least one replay").1;
    let e = &mut outcome.end_to_end;
    e.insert("release_s", release);
    e.insert("ingest_events_per_s", last.accepted as f64 / release);
    println!(
        "setup_s: median of {} daemon bind -> HELLO_OK cycles",
        setup.len()
    );
    e.insert("setup_s", median(&setup));
    e.insert("peak_rss_mb", peak_rss_mb);
    e.insert(
        "retention",
        1.0 - (last.report.suppressed_user_samples + last.stats.suppressed_samples) as f64
            / last.stats.events as f64,
    );
    e.insert(
        "pos_accuracy_m",
        last.published.pos_sum / last.published.user_samples as f64,
    );
    e.insert(
        "time_accuracy_min",
        last.published.time_sum / last.published.user_samples as f64,
    );

    if ctx.trace {
        trace_layers(ctx, &mut outcome, &runs, &name, &events, &path, release)?;
    }
    Ok(outcome)
}

/// The per-layer metrics of a traced run: the engine's counters from the
/// traced replay's report, the exactness anchor, and standalone probes of
/// the event reader, the frame encoder, the per-batch round trip and the
/// kernels.
fn trace_layers(
    ctx: &Ctx,
    outcome: &mut Outcome,
    runs: &[(bool, Replay)],
    name: &str,
    events: &[StreamEvent],
    path: &Path,
    release: f64,
) -> Result<(), String> {
    let config = stream_config();
    let tracer = &ctx.tracer;
    let traced = &runs.iter().find(|r| r.0).expect("a traced replay").1;
    let reshaped = check_anchor(outcome, name, events, config, &traced.stats)?;
    tracer.set_enabled(true);
    let read_s = median(
        &(0..3u32)
            .map(|rep| {
                let start = Instant::now();
                let count = io::EventReader::open(path).map(|r| r.filter(Result::is_ok).count());
                let end = Instant::now();
                tracer.record(tracer.open(), None, "io.event_read", rep, start, end);
                match count {
                    Ok(n) if n as u64 == events.len() as u64 => Ok((end - start).as_secs_f64()),
                    Ok(n) => Err(format!(
                        "the event file read back {n} of {} events",
                        events.len()
                    )),
                    Err(e) => Err(format!("reading the event file: {e}")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?,
    );
    // The frames `send_file` encodes, timed apart from the socket.
    let batches: Vec<Vec<StreamEvent>> = events.chunks(BATCH).map(<[_]>::to_vec).collect();
    let encode_start = Instant::now();
    for batch in &batches {
        std::hint::black_box(encode_frame(&Frame::Events(batch.clone())));
    }
    let encode_end = Instant::now();
    tracer.record(
        tracer.open(),
        None,
        "protocol.encode",
        0,
        encode_start,
        encode_end,
    );
    let encode_us = (encode_end - encode_start).as_secs_f64() * 1e6 / batches.len() as f64;
    let fps = window_fingerprints(events)?;
    let k = kernels::probe(&fps, &config.glove.stretch, ctx.seed, tracer);
    tracer.set_enabled(false);
    let rtt = ack_rtt_ms(ctx, events, config)?;
    let rtt50 = pct(&rtt, 0.50, "ack rtt")?;
    let rtt95 = pct(&rtt, 0.95, "ack rtt")?;

    let engine_ms: Vec<f64> = runs
        .iter()
        .take(POOL_REPLAYS)
        .flat_map(|r| r.1.stats.per_epoch.iter().map(|e| e.elapsed_s * 1e3))
        .collect();
    let engine50 = pct(&engine_ms, 0.50, "epoch engine")?;
    let engine95 = pct(&engine_ms, 0.95, "epoch engine")?;
    let writes: Vec<f64> = runs
        .iter()
        .take(POOL_REPLAYS)
        .flat_map(|r| r.1.write_ms.iter().copied())
        .collect();
    let write50 = pct(&writes, 0.50, "epoch write")?;
    println!(
        "epoch engine times: {} | {}",
        engine50.describe(0.50, "ms"),
        engine95.describe(0.95, "ms")
    );
    println!(
        "epoch writes: {}; ack rtt of batches without BUSY: {} | {}",
        write50.describe(0.50, "ms"),
        rtt50.describe(0.50, "ms"),
        rtt95.describe(0.95, "ms")
    );
    println!(
        "tracing overhead on release_s: traced {:.4} s vs untraced {release:.4} s",
        traced.release_s
    );

    let stats = &traced.stats;
    let report = &traced.report;
    let candidates = stats.pairs_computed + stats.pairs_pruned;
    let flush_s = report
        .phases
        .iter()
        .find(|p| p.phase == "flush")
        .map_or(0.0, |p| p.elapsed_s);
    let l = &mut outcome.layers;
    crate::zero_layers(l);
    l.insert("io.write_file_s", traced.write_ms.iter().sum::<f64>() / 1e3);
    l.insert("io.release_bytes", traced.published.bytes as f64);
    l.insert("io.event_read_s", read_s);
    l.insert("glove.run_s", stats.elapsed_s);
    l.insert("glove.candidate_pairs", candidates as f64);
    l.insert("glove.pairs_computed", stats.pairs_computed as f64);
    l.insert("glove.pairs_tier0", stats.pairs_skipped_tier0 as f64);
    l.insert("glove.pairs_tier1", stats.pairs_skipped_tier1 as f64);
    l.insert("glove.pairs_abandoned", stats.pairs_abandoned as f64);
    l.insert("glove.merges", stats.merges as f64);
    l.insert("glove.pairs_per_s", candidates as f64 / stats.elapsed_s);
    l.insert("compact.signature_build_s", k.signature_build_s);
    l.insert(
        "ledger.peak_arena_mb",
        stats.ledger.peak_arena_bytes as f64 / 1048576.0,
    );
    l.insert(
        "ledger.peak_store_mb",
        stats.ledger.peak_store_bytes as f64 / 1048576.0,
    );
    l.insert("stretch.kernel_pairs_per_s", k.kernel_pairs_per_s);
    l.insert("stretch.hull_build_s", k.hull_build_s);
    l.insert("suppress.samples", report.suppressed_samples as f64);
    l.insert("reshape.samples", reshaped as f64);
    l.insert("stream.epoch_engine_p50_ms", engine50.value);
    l.insert("stream.epoch_engine_tail_ms", engine95.value);
    l.insert("stream.engine_s", stats.elapsed_s);
    l.insert("stream.flush_s", flush_s);
    l.insert("stream.epochs", stats.epochs as f64);
    l.insert("stream.pairs_computed", stats.pairs_computed as f64);
    l.insert("stream.pairs_pruned", stats.pairs_pruned as f64);
    l.insert(
        "stream.peak_resident_samples",
        stats.peak_resident_samples as f64,
    );
    l.insert("protocol.encode_us", encode_us);
    l.insert("serve.ack_rtt_p50_ms", rtt50.value);
    l.insert("serve.ack_rtt_tail_ms", rtt95.value);
    l.insert("serve.busy_replies", traced.busy as f64);
    l.insert(
        "serve.busy_sleep_s",
        traced.busy as f64 * f64::from(RETRY_MS) / 1e3,
    );
    l.insert("serve.epoch_write_ms", write50.value);
    l.insert("serve.engine_share", stats.elapsed_s / traced.release_s);
    l.insert(
        "trace.overhead_pct",
        (traced.release_s - release) / release * 100.0,
    );
    Ok(())
}
