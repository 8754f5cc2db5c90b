//! A long-lived daemon's file descriptors stay bounded: every connection
//! releases its sockets when it ends, however many sessions came before.
//!
//! The count is process-wide (`/proc/self/fd`), so this binary holds a
//! single test: no test running beside it opens descriptors while it
//! counts.

#![cfg(target_os = "linux")]

use glove_core::config::StreamConfig;
use glove_serve::{Client, ServeOptions, Server};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Descriptors a quiet daemon may still hold beyond the baseline: a
/// connection thread that has answered `BYE` but not yet dropped its
/// sockets, and the counting directory handle itself.
const SLACK: usize = 8;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs lists this process's descriptors")
        .count()
}

/// The descriptor count once connection threads that just answered `BYE`
/// have exited: polls until it is at most `target`, for up to 5 s.
fn settled_fds(target: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let open = open_fds();
        if open <= target || Instant::now() >= deadline {
            return open;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn hello_close(addr: SocketAddr, tenant: &str) {
    let mut client = Client::connect(addr).expect("connect");
    client
        .hello(tenant, StreamConfig::default(), false)
        .expect("HELLO");
    client.close().expect("CLOSE");
}

#[test]
fn sequential_sessions_leave_no_descriptors_behind() {
    let server = Server::bind("127.0.0.1:0", ServeOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = server.addr();

    // The first sessions open whatever the process keeps for good.
    for i in 0..10 {
        hello_close(addr, &format!("warm-{i}"));
    }
    // Let the warm-up connection threads exit before taking the baseline.
    std::thread::sleep(Duration::from_millis(100));
    let baseline = open_fds();
    for i in 0..200 {
        hello_close(addr, &format!("tenant-{i}"));
    }
    let after = settled_fds(baseline + SLACK);
    assert!(
        after <= baseline + SLACK,
        "200 sessions left {} descriptors open ({baseline} before, {after} after)",
        after.saturating_sub(baseline)
    );

    glove_serve::client::shutdown(addr).expect("SHUTDOWN");
    let summary = server.join();
    assert_eq!(
        summary.reports.len(),
        210,
        "failures: {:?}",
        summary.failures
    );
}
