//! End-to-end tests of the daemon over real TCP sockets.
//!
//! The anchor property (ISSUE 8): a tenant's epochs and final report,
//! obtained through the socket path — framing, bounded queue, worker
//! thread, backpressure retries — are **identical** to a direct
//! `run_stream` library call with the same configuration and event
//! order; and N interleaved tenants are each identical to their solo
//! runs, invariant under the engine thread count.

use glove_core::config::{CarryPolicy, StreamConfig, UnderKPolicy};
use glove_core::stream::{events_of, run_stream, StreamEvent};
use glove_core::Dataset;
use glove_serve::{Client, ClientError, ErrorCode, ServeOptions, Server, ServerHandle};
use glove_synth::{generate, ScenarioConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn synth_dataset(users: usize, seed: u64) -> Dataset {
    let mut cfg = ScenarioConfig::metro_like(users);
    cfg.num_towers = 60;
    cfg.seed = seed;
    generate(&cfg).dataset
}

fn tenant_config(k: usize, window_min: u32, threads: usize) -> StreamConfig {
    let mut c = StreamConfig {
        window_min,
        carry: CarryPolicy::Fresh,
        under_k: UnderKPolicy::Suppress,
        ..StreamConfig::default()
    };
    c.glove.k = k;
    c.glove.threads = threads;
    c
}

type CanonRows = Vec<(Vec<u32>, Vec<(i64, i64, u32, u32, u32, u32)>)>;

/// Serializes a dataset into a canonical comparable form.
fn canon(ds: &Dataset) -> CanonRows {
    let mut rows: CanonRows = ds
        .fingerprints
        .iter()
        .map(|f| {
            (
                f.users().to_vec(),
                f.samples()
                    .iter()
                    .map(|s| (s.x, s.y, s.dx, s.dy, s.t, s.dt))
                    .collect(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// Spawns a daemon persisting epochs via a plain-text writer into `dir`.
fn spawn_server(dir: &Path, queue_events: usize) -> ServerHandle {
    let opts = ServeOptions {
        out_dir: Some(dir.to_path_buf()),
        queue_events,
        retry_ms: 1,
        epoch_writer: Some(Arc::new(write_epoch)),
        policy: glove_core::policy::PolicyPlane::uniform(),
    };
    Server::bind("127.0.0.1:0", opts)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

/// Minimal epoch persistence: a users header then one line per sample.
fn write_epoch(ds: &Dataset, path: &Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for f in &ds.fingerprints {
        let users: Vec<String> = f.users().iter().map(|u| u.to_string()).collect();
        writeln!(out, "# {}", users.join(" "))?;
        for s in f.samples() {
            writeln!(out, "{} {} {} {} {} {}", s.x, s.y, s.dx, s.dy, s.t, s.dt)?;
        }
    }
    out.flush()
}

fn read_epoch(path: &Path) -> CanonRows {
    let text = std::fs::read_to_string(path).unwrap();
    let mut rows: CanonRows = Vec::new();
    for line in text.lines() {
        if let Some(users) = line.strip_prefix("# ") {
            rows.push((
                users.split(' ').map(|t| t.parse().unwrap()).collect(),
                Vec::new(),
            ));
        } else {
            let v: Vec<i64> = line.split(' ').map(|t| t.parse().unwrap()).collect();
            rows.last_mut().unwrap().1.push((
                v[0],
                v[1],
                v[2] as u32,
                v[3] as u32,
                v[4] as u32,
                v[5] as u32,
            ));
        }
    }
    rows.sort();
    rows
}

fn epoch_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("epoch-") && n.ends_with(".txt"))
        })
        .collect();
    files.sort();
    files
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glove-serve-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Feeds all events through a client session and returns the final report.
fn drive_tenant(
    addr: std::net::SocketAddr,
    tenant: &str,
    config: StreamConfig,
    events: &[StreamEvent],
    batch: usize,
) -> glove_core::api::RunReport {
    let mut client = Client::connect(addr).unwrap();
    client.hello(tenant, config, false).unwrap();
    let outcome = client.send_events(events, batch).unwrap();
    assert_eq!(outcome.accepted, events.len() as u64);
    assert_eq!(outcome.shed, 0);
    let report = client.flush().unwrap();
    client.close().unwrap();
    report
}

#[test]
fn socket_path_is_byte_identical_to_library_run() {
    let dir = tmp_dir("identity");
    let server = spawn_server(&dir, 64); // small queue to exercise BUSY
    let ds = synth_dataset(40, 0xA11CE);
    let events = events_of(&ds);
    let config = tenant_config(2, 720, 1);

    let report = drive_tenant(server.addr(), "alpha", config, &events, 48);

    // Library reference run.
    let reference = run_stream("alpha", events.iter().copied(), config).unwrap();

    // Epoch files match the reference epochs exactly.
    let files = epoch_files(&dir.join("alpha"));
    assert_eq!(files.len(), reference.epochs.len());
    assert!(!files.is_empty(), "no epochs produced");
    for (file, epoch) in files.iter().zip(&reference.epochs) {
        assert_eq!(read_epoch(file), canon(&epoch.output.dataset));
    }

    // Aggregate stats match (modulo wall-clock fields).
    let got = report.detail.as_stream().unwrap();
    assert_eq!(got.events, reference.stats.events);
    assert_eq!(got.epochs, reference.stats.epochs);
    assert_eq!(got.merges, reference.stats.merges);
    assert_eq!(got.suppressed_users, reference.stats.suppressed_users);
    assert_eq!(got.suppressed_samples, reference.stats.suppressed_samples);
    assert_eq!(got.shed_events, 0);

    glove_serve::client::shutdown(server.addr()).unwrap();
    let summary = server.join();
    assert_eq!(summary.reports.len(), 1);
    assert!(summary.failures.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interleaved_tenants_match_their_solo_runs_across_thread_counts() {
    for engine_threads in [1usize, 2] {
        let dir = tmp_dir(&format!("multi-{engine_threads}"));
        let server = spawn_server(&dir, 32);
        let tenants = ["t-metro", "t-sparse", "t-defer"];
        let configs = [
            tenant_config(2, 720, engine_threads),
            tenant_config(3, 1440, engine_threads),
            {
                let mut c = tenant_config(2, 720, engine_threads);
                c.under_k = UnderKPolicy::Defer;
                c.carry = CarryPolicy::Sticky;
                c
            },
        ];
        let datasets: Vec<Dataset> = (0..3)
            .map(|i| synth_dataset(24 + 8 * i, 0xBEEF + i as u64))
            .collect();

        // Interleave: three client threads hammer the daemon concurrently.
        let mut joins = Vec::new();
        for i in 0..3 {
            let addr = server.addr();
            let tenant = tenants[i].to_string();
            let config = configs[i];
            let events = events_of(&datasets[i]);
            joins.push(std::thread::spawn(move || {
                drive_tenant(addr, &tenant, config, &events, 16)
            }));
        }
        let reports: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();

        // Each tenant's epochs are identical to its solo library run.
        for i in 0..3 {
            let reference = run_stream(
                tenants[i],
                events_of(&datasets[i]).iter().copied(),
                configs[i],
            )
            .unwrap();
            let files = epoch_files(&dir.join(tenants[i]));
            assert_eq!(files.len(), reference.epochs.len(), "tenant {}", tenants[i]);
            for (file, epoch) in files.iter().zip(&reference.epochs) {
                assert_eq!(
                    read_epoch(file),
                    canon(&epoch.output.dataset),
                    "tenant {} diverged from its solo run",
                    tenants[i]
                );
            }
            let got = reports[i].detail.as_stream().unwrap();
            assert_eq!(got.events, reference.stats.events);
            assert_eq!(got.epochs, reference.stats.epochs);
            assert_eq!(got.merges, reference.stats.merges);
        }

        glove_serve::client::shutdown(server.addr()).unwrap();
        let summary = server.join();
        assert_eq!(summary.reports.len(), 3);
        assert!(summary.failures.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn stats_mid_run_and_epoch_pushes() {
    let dir = tmp_dir("stats");
    let server = spawn_server(&dir, 256);
    let ds = synth_dataset(24, 0x57A75);
    let events = events_of(&ds);

    let mut client = Client::connect(server.addr()).unwrap();
    let queue = client
        .hello("live", tenant_config(2, 720, 1), false)
        .unwrap();
    assert_eq!(queue, 256);
    client.send_events(&events, 64).unwrap();

    // Live snapshot: accepted events are visible before FLUSH.
    let snap = client.stats().unwrap();
    let stats = snap.detail.as_stream().unwrap();
    assert!(stats.events + stats.shed_events <= events.len() as u64);
    assert_eq!(snap.dataset, "live");

    let report = client.flush().unwrap();
    assert_eq!(
        report.detail.as_stream().unwrap().events,
        events.len() as u64
    );
    // The worker pushed one EPOCH note per epoch file.
    let files = epoch_files(&dir.join("live"));
    assert_eq!(client.epochs().len(), files.len());
    assert!(client.epochs().iter().all(|e| e.tenant == "live"));

    client.close().unwrap();
    glove_serve::client::shutdown(server.addr()).unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_names_are_unique_and_errors_are_typed() {
    let dir = tmp_dir("unique");
    let server = spawn_server(&dir, 16);

    let mut a = Client::connect(server.addr()).unwrap();
    a.hello("dup", tenant_config(2, 720, 1), false).unwrap();

    // Same tenant on a second connection → TENANT_EXISTS.
    let mut b = Client::connect(server.addr()).unwrap();
    match b.hello("dup", tenant_config(2, 720, 1), false) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::TenantExists),
        other => panic!("expected tenant-exists, got {other:?}"),
    }

    // EVENTS before HELLO → NO_TENANT.
    let mut c = Client::connect(server.addr()).unwrap();
    match c.send_events(&events_of(&synth_dataset(4, 7))[..4], 4) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NoTenant),
        other => panic!("expected no-tenant, got {other:?}"),
    }

    // Invalid config → ENGINE error, and the name is released for reuse.
    let mut d = Client::connect(server.addr()).unwrap();
    let bad = tenant_config(0, 720, 1); // k = 0 is invalid
    assert!(matches!(
        d.hello("fixme", bad, false),
        Err(ClientError::Server {
            code: ErrorCode::Engine,
            ..
        })
    ));
    let mut e = Client::connect(server.addr()).unwrap();
    e.hello("fixme", tenant_config(2, 720, 1), false).unwrap();

    a.flush().unwrap();
    glove_serve::client::shutdown(server.addr()).unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shed_session_over_tcp_books_every_drop_and_loses_no_accepted_event() {
    // A stalled sink behind a tiny queue, fed in frames larger than the
    // queue: every frame overflows, so the daemon must shed, and the
    // HELLO flag, the EVENTS_OK shed count, the client's resend slice and
    // the reported ledger must all agree on what was dropped.
    const QUEUE: usize = 64;
    let dir = tmp_dir("shed");
    let stalled: Arc<glove_serve::EpochWriteFn> = Arc::new(|_ds: &Dataset, _path: &Path| {
        std::thread::sleep(std::time::Duration::from_millis(25));
        Ok(())
    });
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            out_dir: Some(dir.clone()),
            queue_events: QUEUE,
            retry_ms: 1,
            epoch_writer: Some(stalled),
            policy: glove_core::policy::PolicyPlane::uniform(),
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let events = events_of(&synth_dataset(40, 0x5EED));
    let offered = events.len() as u64;

    let mut client = Client::connect(server.addr()).unwrap();
    let queue = client
        .hello("slow-consumer", tenant_config(2, 1440, 1), true)
        .unwrap();
    assert_eq!(queue as usize, QUEUE);
    let outcome = client.send_events(&events, 8 * QUEUE).unwrap();
    assert_eq!(
        outcome.accepted + outcome.shed,
        offered,
        "every offered event is accounted for"
    );
    assert_eq!(outcome.busy_retries, 0, "a shed session never answers BUSY");
    let report = client.flush().unwrap();
    client.close().unwrap();

    let stats = report.detail.as_stream().unwrap();
    assert!(
        stats.shed_events > 0,
        "a stalled sink behind a {QUEUE}-event queue must shed"
    );
    assert_eq!(stats.shed_events, outcome.shed);
    assert_eq!(stats.events, outcome.accepted);

    glove_serve::client::shutdown(server.addr()).unwrap();
    let summary = server.join();
    assert!(summary.failures.is_empty(), "{:?}", summary.failures);
    assert_eq!(summary.shed_total(), outcome.shed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_flushes_open_sessions() {
    let dir = tmp_dir("shutdown");
    let server = spawn_server(&dir, 4096);
    let ds = synth_dataset(24, 0xD00D);
    let events = events_of(&ds);

    let mut client = Client::connect(server.addr()).unwrap();
    client
        .hello("partial", tenant_config(2, 720, 1), false)
        .unwrap();
    let sent = client.send_events(&events, 128).unwrap();
    assert_eq!(sent.accepted, events.len() as u64);

    // No FLUSH: a second connection shuts the daemon down instead.
    glove_serve::client::shutdown(server.addr()).unwrap();
    let summary = server.join();

    // The open session was finalized: every accepted event reached the
    // engine and the final partial window was flushed to disk.
    assert_eq!(summary.reports.len(), 1, "failures: {:?}", summary.failures);
    let report = &summary.reports[0];
    assert_eq!(report.dataset, "partial");
    assert_eq!(
        report.detail.as_stream().unwrap().events,
        events.len() as u64,
        "graceful shutdown lost accepted events"
    );
    let reference =
        run_stream("partial", events.iter().copied(), tenant_config(2, 720, 1)).unwrap();
    let files = epoch_files(&dir.join("partial"));
    assert_eq!(files.len(), reference.epochs.len());
    let _ = std::fs::remove_dir_all(&dir);
}
