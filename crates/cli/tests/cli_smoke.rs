//! End-to-end smoke test of the compiled `glove` binary: drives the
//! documented `synth → info → anonymize` workflow through real process
//! invocations and asserts on exit codes and on the k-anonymity of the
//! produced dataset file.

use glove_cli::io;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Path of the binary under test, provided by Cargo for integration tests.
fn glove_bin() -> &'static str {
    env!("CARGO_BIN_EXE_glove")
}

fn run(args: &[&str]) -> Output {
    Command::new(glove_bin())
        .args(args)
        .output()
        .expect("spawning the glove binary succeeds")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("glove-cli-smoke-{}-{name}", std::process::id()))
}

#[test]
fn synth_info_anonymize_round_trip() {
    let data = temp_path("data.txt");
    let anon = temp_path("anon.txt");

    // synth: exit 0, file exists, reports the requested population.
    let out = run(&[
        "synth",
        "--preset",
        "civ",
        "--users",
        "10",
        "--seed",
        "7",
        "--out",
        data.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "synth failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("10 users"),
        "unexpected synth output: {stdout}"
    );

    // info: exit 0 and a sane summary of the same file.
    let out = run(&["info", "--in", data.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "info failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("subscribers:   10"),
        "info output: {stdout}"
    );
    assert!(stdout.contains("k-anonymity:   1"), "info output: {stdout}");

    // anonymize: exit 0 and the output file is verifiably 2-anonymous.
    let out = run(&[
        "anonymize",
        "--in",
        data.to_str().unwrap(),
        "--out",
        anon.to_str().unwrap(),
        "--k",
        "2",
    ]);
    assert!(
        out.status.success(),
        "anonymize failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let published = io::read_file(&anon).expect("anonymize must write a parseable dataset");
    assert!(
        published.is_k_anonymous(2),
        "published dataset is not 2-anonymous"
    );
    let original = io::read_file(&data).expect("synth output stays parseable");
    assert_eq!(
        published.num_users(),
        original.num_users(),
        "default residual policy must keep every subscriber"
    );

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&anon);
}

#[test]
fn sharded_anonymize_round_trips_through_audit() {
    let data = temp_path("shard-data.txt");
    let anon = temp_path("shard-anon.txt");

    let out = run(&[
        "synth",
        "--preset",
        "civ",
        "--users",
        "24",
        "--seed",
        "3",
        "--out",
        data.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "synth failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // anonymize with 4 activity shards: exit 0 and per-shard stats printed.
    let out = run(&[
        "anonymize",
        "--in",
        data.to_str().unwrap(),
        "--out",
        anon.to_str().unwrap(),
        "--k",
        "2",
        "--shards",
        "4",
        "--shard-by",
        "activity",
    ]);
    assert!(
        out.status.success(),
        "sharded anonymize failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("shards: 4 (activity)"),
        "missing shard summary: {stdout}"
    );
    assert!(
        stdout.contains("shard 0:") && stdout.contains("shard 3:"),
        "missing per-shard stats: {stdout}"
    );

    // The sharded output round-trips through `audit`, which confirms every
    // published fingerprint already hides >= 2 subscribers.
    let out = run(&["audit", "--in", anon.to_str().unwrap(), "--k", "2"]);
    assert!(
        out.status.success(),
        "audit of sharded output failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("already k-anonymous: 100.0%"),
        "sharded output not fully k-anonymous per audit: {stdout}"
    );

    // File-level invariants: parseable, 2-anonymous, user-conserving.
    let published = io::read_file(&anon).expect("sharded output parseable");
    assert!(published.is_k_anonymous(2));
    assert_eq!(published.num_users(), 24);

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&anon);
}

#[test]
fn bad_shard_flags_exit_nonzero_with_clear_errors() {
    let data = temp_path("bad-shard-data.txt");
    let out = run(&[
        "synth",
        "--preset",
        "civ",
        "--users",
        "10",
        "--seed",
        "1",
        "--out",
        data.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // Unknown shard key.
    let out = run(&[
        "anonymize",
        "--in",
        data.to_str().unwrap(),
        "--out",
        "/tmp/never-written.txt",
        "--k",
        "2",
        "--shards",
        "2",
        "--shard-by",
        "geohash",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("activity|spatial"),
        "unhelpful --shard-by error: {stderr}"
    );

    // --shard-by without --shards.
    let out = run(&[
        "anonymize",
        "--in",
        data.to_str().unwrap(),
        "--out",
        "/tmp/never-written.txt",
        "--k",
        "2",
        "--shard-by",
        "activity",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--shard-by requires --shards"));

    // Zero shards.
    let out = run(&[
        "anonymize",
        "--in",
        data.to_str().unwrap(),
        "--out",
        "/tmp/never-written.txt",
        "--k",
        "2",
        "--shards",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--shards must be at least 1"));

    let _ = std::fs::remove_file(&data);
}

#[test]
fn synth_events_stream_round_trip() {
    // The streaming pipeline end to end through the binary: synthesize an
    // event file (no dataset ever materialized), stream it into daily
    // epochs, verify each epoch file is k-anonymous.
    let events = temp_path("events.txt");
    let out_dir = temp_path("stream-epochs");

    let out = run(&[
        "synth",
        "--preset",
        "civ",
        "--users",
        "12",
        "--seed",
        "5",
        "--events-out",
        events.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "synth --events-out failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("events from 12 users"),
        "unexpected synth output: {stdout}"
    );

    let out = run(&[
        "stream",
        "--in",
        events.to_str().unwrap(),
        "--out-dir",
        out_dir.to_str().unwrap(),
        "--k",
        "2",
        "--window",
        "2880",
        "--carry",
        "sticky",
        "--under-k",
        "defer",
    ]);
    assert!(
        out.status.success(),
        "stream failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("peak resident:"),
        "missing residency stats: {stdout}"
    );

    let mut epoch_files: Vec<_> = std::fs::read_dir(&out_dir)
        .expect("stream created the output directory")
        .map(|e| e.unwrap().path())
        .collect();
    epoch_files.sort();
    assert!(
        epoch_files.len() >= 3,
        "expected several 2-day epochs, got {}",
        epoch_files.len()
    );
    for f in &epoch_files {
        let epoch = io::read_file(f).expect("epoch file parseable");
        assert!(epoch.is_k_anonymous(2), "{} not 2-anonymous", f.display());
    }

    let _ = std::fs::remove_file(&events);
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn bad_stream_flags_exit_nonzero_with_clear_errors() {
    let out = run(&[
        "stream",
        "--in",
        "/tmp/whatever.txt",
        "--out-dir",
        "/tmp/whatever-dir",
        "--k",
        "2",
        "--carry",
        "warm",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("fresh|sticky"));

    let out = run(&[
        "stream",
        "--in",
        "/tmp/whatever.txt",
        "--out-dir",
        "/tmp/whatever-dir",
        "--k",
        "2",
        "--under-k",
        "drop",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("suppress|defer"));

    // synth with neither output flag is rejected.
    let out = run(&["synth", "--preset", "civ", "--users", "5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--events-out"));
}

#[test]
fn bad_invocations_exit_nonzero_with_usage() {
    // No command.
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    // Unknown command.
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));

    // Missing required option.
    let out = run(&["synth", "--preset", "civ"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--users"));

    // Unreadable input file.
    let out = run(&["info", "--in", "/nonexistent/definitely-missing.txt"]);
    assert_eq!(out.status.code(), Some(2));

    // A malformed input file is no command-line mistake: the error names
    // the line, without the usage text.
    let data = temp_path("bad-utf8.txt");
    let mut text = b"# glove dataset v1\nF 1\nS 0 0 100 100 10 1\nS 0 0 100 100 2".to_vec();
    text.extend_from_slice(b"\xFF 1\n");
    std::fs::write(&data, &text).unwrap();
    let out = run(&["info", "--in", data.to_str().unwrap()]);
    let _ = std::fs::remove_file(&data);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 4: invalid UTF-8"), "stderr: {stderr}");
    assert!(!stderr.contains("USAGE"), "stderr: {stderr}");

    // Neither is a run that fails: an unsatisfiable k names the k, without
    // the usage text.
    let data = temp_path("k50-data.txt");
    let anon = temp_path("k50-anon.txt");
    let synth = run(&[
        "synth",
        "--preset",
        "civ",
        "--users",
        "20",
        "--seed",
        "7",
        "--out",
        data.to_str().unwrap(),
    ]);
    assert!(synth.status.success());
    let out = run(&[
        "anonymize",
        "--in",
        data.to_str().unwrap(),
        "--out",
        anon.to_str().unwrap(),
        "--k",
        "50",
    ]);
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&anon);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unsatisfiable") && stderr.contains("k = 50"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("USAGE"), "stderr: {stderr}");
}

#[test]
fn every_advertised_preset_synths_at_tiny_scale() {
    // Each name in `glove_synth::PRESETS` must work end to end through the
    // binary — both the batch dataset path and the streaming events path —
    // so the USAGE text never advertises a preset that doesn't run.
    for preset in glove_synth::PRESETS {
        let data = temp_path(&format!("preset-{preset}.txt"));
        let out = run(&[
            "synth",
            "--preset",
            preset,
            "--users",
            "10",
            "--seed",
            "7",
            "--out",
            data.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "synth --preset {preset} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("users"),
            "synth --preset {preset} output: {stdout}"
        );
        let ds = io::read_file(&data).expect("preset output parseable");
        // Churn presets split people across extra SIM ids; everything else
        // keeps exactly the requested population.
        assert!(
            ds.num_users() >= 10,
            "preset {preset} produced only {} user ids",
            ds.num_users()
        );
        assert!(ds.num_samples() > 0, "preset {preset} produced no samples");

        let events = temp_path(&format!("preset-{preset}-events.txt"));
        let out = run(&[
            "synth",
            "--preset",
            preset,
            "--users",
            "10",
            "--seed",
            "7",
            "--events-out",
            events.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "synth --preset {preset} --events-out failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(io::is_events_file(&events).unwrap());

        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&events);
    }
}

#[test]
fn unknown_preset_error_lists_the_presets() {
    let out = run(&[
        "synth",
        "--preset",
        "mars",
        "--users",
        "10",
        "--out",
        "/tmp/never-written.txt",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown preset 'mars'"),
        "unhelpful preset error: {stderr}"
    );
    for preset in glove_synth::PRESETS {
        assert!(
            stderr.contains(preset),
            "preset error does not mention '{preset}': {stderr}"
        );
    }
}

#[test]
fn help_prints_usage_on_stdout() {
    let out = run(&["help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("anonymize"));
}
