//! `glove stream` — windowed online GLOVE over an event stream, driven
//! through the unified [`RunBuilder`] with an epoch-writing
//! [`Observer`]: each closed window's dataset is written (and dropped) the
//! moment the engine emits it, so the command's memory footprint follows
//! the window population exactly as a hand-driven
//! [`glove_core::stream::StreamEngine`] loop would.

use crate::io;
use glove_core::api::{Observer, RunBuilder};
use glove_core::policy::PolicyPlane;
use glove_core::stream::{events_of, EpochOutput};
use glove_core::{
    CarryPolicy, GloveConfig, GloveError, ShardBy, ShardPolicy, StreamConfig,
    SuppressionThresholds, UnderKPolicy,
};
use std::error::Error;
use std::path::Path;

/// Options of `glove stream`.
#[derive(Debug, Clone)]
pub struct StreamOpts {
    /// Anonymity level per epoch.
    pub k: usize,
    /// Window (epoch) length, minutes.
    pub window_min: u32,
    /// Cross-epoch continuity policy.
    pub carry: CarryPolicy,
    /// Policy for windows below `k` subscribers.
    pub under_k: UnderKPolicy,
    /// Optional spatial suppression threshold, meters.
    pub suppress_space_m: Option<u32>,
    /// Optional temporal suppression threshold, minutes.
    pub suppress_time_min: Option<u32>,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Optional per-epoch shard count.
    pub shards: Option<usize>,
    /// Shard assignment key (only meaningful with `shards`).
    pub shard_by: ShardBy,
    /// Optional policy plane (from `--policy FILE`): per-cohort/per-epoch
    /// overrides of the base configuration above. `None` = uniform.
    pub policy: Option<PolicyPlane>,
}

impl Default for StreamOpts {
    fn default() -> Self {
        Self {
            k: 2,
            window_min: 1_440,
            carry: CarryPolicy::Fresh,
            under_k: UnderKPolicy::Suppress,
            suppress_space_m: None,
            suppress_time_min: None,
            threads: 0,
            shards: None,
            shard_by: ShardBy::Activity,
            policy: None,
        }
    }
}

impl StreamOpts {
    /// The engine configuration these options describe (shared by
    /// `glove stream` and `glove send`, which inlines it in `HELLO`).
    pub fn to_stream_config(&self) -> StreamConfig {
        let glove = GloveConfig {
            k: self.k,
            suppression: SuppressionThresholds {
                max_space_m: self.suppress_space_m,
                max_time_min: self.suppress_time_min,
            },
            threads: self.threads,
            shard: self.shards.map(|shards| ShardPolicy {
                shards,
                by: self.shard_by,
            }),
            ..GloveConfig::default()
        };
        StreamConfig {
            window_min: self.window_min,
            carry: self.carry,
            under_k: self.under_k,
            glove,
        }
    }
}

/// Writes each emitted epoch to `out_dir/epoch-NNNN.txt` as it closes. A
/// failed write (full disk, revoked permissions) ends the run at that
/// epoch instead of burning the rest of a long stream producing nothing.
struct EpochWriter<'a> {
    out_dir: &'a Path,
}

impl Observer for EpochWriter<'_> {
    fn on_epoch(&mut self, epoch: &EpochOutput) -> std::io::Result<()> {
        let path = self.out_dir.join(format!("epoch-{:04}.txt", epoch.epoch));
        io::write_file(&epoch.output.dataset, &path)
    }
}

/// `glove stream`: windowed online GLOVE over an event stream.
///
/// `input` may be an event file (`E` records, streamed through
/// [`io::EventReader`] with bounded memory) or a dataset file (replayed as
/// its time-ordered event view — a convenience that loads the dataset
/// first). Each closed window's anonymized epoch is written to
/// `out_dir/epoch-NNNN.txt` as soon as it is emitted and dropped from
/// memory. `out_dir` is treated as owned by this command: `epoch-*.txt`
/// files left by a previous run are removed (after the input has been
/// opened successfully), and the removal is reported in the output.
pub fn stream_cmd(
    input: &Path,
    out_dir: &Path,
    opts: &StreamOpts,
) -> Result<String, Box<dyn Error>> {
    let stream = opts.to_stream_config();
    let glove = stream.glove; // authoritative copy travels through the builder below
                              // Open (or load) the input before touching the output directory, so a
                              // typo'd path or unparseable file cannot destroy a previous run.
    enum Source {
        Events(io::EventReader<std::io::BufReader<std::fs::File>>),
        Dataset(glove_core::Dataset),
    }
    let source = if io::is_events_file(input)? {
        Source::Events(io::EventReader::open(input)?)
    } else {
        Source::Dataset(io::read_file(input)?)
    };

    std::fs::create_dir_all(out_dir)?;
    // A rerun into the same directory may emit fewer epochs (longer
    // windows); stale epoch files from a previous run would silently
    // interleave with the new output, so clear them first — and say so.
    let mut cleared = 0usize;
    for entry in std::fs::read_dir(out_dir)? {
        let path = entry?.path();
        if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
            if name.starts_with("epoch-") && name.ends_with(".txt") {
                std::fs::remove_file(&path)?;
                cleared += 1;
            }
        }
    }

    let mut writer = EpochWriter { out_dir };
    let mut builder = RunBuilder::new(glove).stream(stream).keep_epochs(false);
    if let Some(plane) = &opts.policy {
        builder = builder.policy(plane.clone());
    }
    // A malformed record stops the engine too; its parse error, which
    // names the line, is what the command reports.
    let mut read_error = None;
    let run = match source {
        Source::Events(reader) => {
            let name = reader.name().to_string();
            let mut events = reader.map(|r| {
                r.map_err(|e| {
                    let stop = GloveError::InvalidDataset(e.to_string());
                    read_error = Some(e);
                    stop
                })
            });
            builder.run_events(&name, &mut events, &mut writer)
        }
        Source::Dataset(ds) => {
            let mut events = events_of(&ds).into_iter().map(Ok);
            builder.run_events(&ds.name, &mut events, &mut writer)
        }
    };
    if let Some(e) = read_error {
        return Err(e.into());
    }
    let outcome = run?;

    let stats = outcome.report.detail.as_stream().expect("stream detail");
    let mut msg = format!(
        "streamed {} events into {} epochs under {} (k = {}, window {} min, {} carry, \
         under-k {})\n\
         peak resident: {} fingerprints, {} samples\n\
         merges: {}, pairs: {} computed + {} pruned, anonymization {:.1} s",
        stats.events,
        stats.epochs,
        out_dir.display(),
        opts.k,
        opts.window_min,
        opts.carry.as_str(),
        opts.under_k.as_str(),
        stats.peak_resident_fingerprints,
        stats.peak_resident_samples,
        stats.merges,
        stats.pairs_computed,
        stats.pairs_pruned,
        stats.elapsed_s,
    );
    if cleared > 0 {
        msg.push_str(&format!(
            "\nreplaced {cleared} epoch file(s) left by a previous run"
        ));
    }
    if stats.suppressed_users > 0 || stats.deferred_users > 0 {
        msg.push_str(&format!(
            "\nunder-k ledger: {} user-slices suppressed ({} samples), \
             {} deferred ({} samples)",
            stats.suppressed_users,
            stats.suppressed_samples,
            stats.deferred_users,
            stats.deferred_samples,
        ));
    }
    if stats.seeded_groups > 0 {
        msg.push_str(&format!(
            "\ncarry-over: {} sticky groups seeded across epochs",
            stats.seeded_groups
        ));
    }
    for e in &stats.per_epoch {
        msg.push_str(&format!(
            "\n  epoch {:>3} @ {:>6} min: {} users in {} fps ({} seeded) -> {} groups, \
             {} merges, {} pairs, {:.2} s",
            e.epoch,
            e.window_start_min,
            e.users_in,
            e.fingerprints_in,
            e.seeded_groups,
            e.groups_out,
            e.merges,
            e.pairs_computed,
            e.elapsed_s,
        ));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{temp, temp_dir};
    use super::super::{anonymize_cmd, synth, AnonymizeOpts};
    use super::*;
    use glove_core::ResidualPolicy;

    #[test]
    fn stream_command_emits_k_anonymous_epochs() {
        let data = temp("stream-data");
        let out_dir = temp_dir("stream-epochs");
        synth("civ", 16, Some(9), Some(&data), None).unwrap();
        let opts = StreamOpts {
            k: 2,
            window_min: 2_880,
            threads: 1,
            ..StreamOpts::default()
        };
        let msg = stream_cmd(&data, &out_dir, &opts).unwrap();
        assert!(msg.contains("epochs under"), "message: {msg}");
        assert!(msg.contains("peak resident:"), "message: {msg}");
        assert!(msg.contains("epoch   0"), "message: {msg}");
        // Every emitted epoch file parses and is 2-anonymous.
        let mut epoch_files: Vec<_> = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        epoch_files.sort();
        assert!(
            epoch_files.len() >= 4,
            "14-day civ span with 2-day windows must emit several epochs, got {}",
            epoch_files.len()
        );
        for f in &epoch_files {
            let epoch = io::read_file(f).unwrap();
            assert!(epoch.is_k_anonymous(2), "{} not 2-anonymous", f.display());
        }
        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn stream_command_consumes_event_files_and_sticky_carries() {
        let events = temp("stream-ev-in");
        let out_dir = temp_dir("stream-ev-epochs");
        synth("civ", 12, Some(13), None, Some(&events)).unwrap();
        let opts = StreamOpts {
            k: 2,
            window_min: 4_320,
            carry: CarryPolicy::Sticky,
            under_k: UnderKPolicy::Defer,
            threads: 1,
            ..StreamOpts::default()
        };
        let msg = stream_cmd(&events, &out_dir, &opts).unwrap();
        assert!(msg.contains("sticky carry"), "message: {msg}");
        assert!(msg.contains("under-k defer"), "message: {msg}");
        assert!(
            msg.contains("sticky groups seeded"),
            "stable civ users must re-seed groups: {msg}"
        );
        let _ = std::fs::remove_file(&events);
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn stream_rerun_clears_stale_epoch_files() {
        // A rerun with longer windows emits fewer epochs; the previous
        // run's surplus epoch files must not survive in the directory.
        let data = temp("stream-rerun-data");
        let out_dir = temp_dir("stream-rerun-epochs");
        synth("civ", 12, Some(19), Some(&data), None).unwrap();

        let short = StreamOpts {
            k: 2,
            window_min: 2_880,
            threads: 1,
            ..StreamOpts::default()
        };
        stream_cmd(&data, &out_dir, &short).unwrap();
        let count_epochs = || {
            std::fs::read_dir(&out_dir)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .starts_with("epoch-")
                })
                .count()
        };
        let many = count_epochs();
        assert!(many >= 4, "short windows must emit several epochs");

        let long = StreamOpts {
            k: 2,
            window_min: 1_000_000,
            threads: 1,
            ..StreamOpts::default()
        };
        stream_cmd(&data, &out_dir, &long).unwrap();
        assert_eq!(
            count_epochs(),
            1,
            "stale epochs from the previous run must be cleared"
        );
        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn stream_policy_plane_deepens_k_from_epoch_one() {
        // The CLI-level policy path: a JSON plane raising k to 3 from
        // epoch 1 on must leave epoch 0 at k = 2 and deepen the rest.
        let data = temp("stream-policy-data");
        let out_dir = temp_dir("stream-policy-epochs");
        synth("civ", 16, Some(9), Some(&data), None).unwrap();
        let plane =
            PolicyPlane::from_json(r#"{"cohorts": [], "rules": [{"from_epoch": 1, "k": 3}]}"#)
                .unwrap();
        let opts = StreamOpts {
            k: 2,
            window_min: 2_880,
            threads: 1,
            policy: Some(plane),
            ..StreamOpts::default()
        };
        stream_cmd(&data, &out_dir, &opts).unwrap();
        let mut epoch_files: Vec<_> = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        epoch_files.sort();
        assert!(epoch_files.len() >= 2, "need at least two epochs");
        for (i, f) in epoch_files.iter().enumerate() {
            let epoch = io::read_file(f).unwrap();
            let want = if i == 0 { 2 } else { 3 };
            assert!(
                epoch.is_k_anonymous(want),
                "{} not {}-anonymous",
                f.display(),
                want
            );
        }
        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn stream_single_window_is_byte_identical_to_anonymize() {
        // The equivalence anchor, end to end through the CLI: one window
        // covering the whole span + fresh carry == the batch command.
        let data = temp("stream-eq-data");
        let anon = temp("stream-eq-anon");
        let out_dir = temp_dir("stream-eq-epochs");
        synth("civ", 12, Some(17), Some(&data), None).unwrap();

        let aopts = AnonymizeOpts {
            k: 2,
            suppress_space_m: None,
            suppress_time_min: None,
            residual: ResidualPolicy::MergeIntoNearest,
            threads: 1,
            shards: None,
            shard_by: ShardBy::Activity,
        };
        anonymize_cmd(&data, &anon, &aopts).unwrap();

        let sopts = StreamOpts {
            k: 2,
            window_min: 1_000_000, // one window over the whole horizon
            threads: 1,
            ..StreamOpts::default()
        };
        stream_cmd(&data, &out_dir, &sopts).unwrap();

        let batch_bytes = std::fs::read(&anon).unwrap();
        let epoch_bytes = std::fs::read(out_dir.join("epoch-0000.txt")).unwrap();
        assert_eq!(
            batch_bytes, epoch_bytes,
            "single-window fresh stream must be byte-identical to the batch run"
        );
        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&anon);
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
