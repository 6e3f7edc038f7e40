//! Process-level crash-kill chaos: a real `optrepd` child killed with
//! SIGKILL — including *mid-contact* — must restart from its data dir
//! to exactly a state the replica passed through, never a partial
//! contact. The PR-3 stage-then-commit machinery made frame-level
//! deaths atomic in memory; the WAL extends the same contract across
//! process death, asserted here by `replica_digest` identity against a
//! never-killed in-process mirror.
//!
//! These tests drive the actual daemon binary (`CARGO_BIN_EXE_optrepd`)
//! because in-process nodes cannot be SIGKILLed: the kernel's notion of
//! "gone mid-write" is the thing under test.

#![cfg(unix)]

use optrep_core::SiteId;
use optrep_net::ConnectOptions;
use optrep_server::{Client, Node, NodeConfig};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn connect_opts() -> ConnectOptions {
    ConnectOptions::new()
        .attempts(3)
        .backoff(Duration::from_millis(2), Duration::from_millis(20))
        .timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5)))
}

fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "optrep-chaos-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One `optrepd` child process; killed (hard) on drop so a failing
/// assertion never leaks daemons.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns `optrepd` durable in `dir` with `fsync`, waits for its
    /// `listening on` line, and returns the handle plus bound address.
    fn spawn(site: &str, dir: &Path, fsync: &str) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_optrepd"))
            .args([
                "--site",
                site,
                "--listen",
                "127.0.0.1:0",
                "--data-dir",
                dir.to_str().expect("utf-8 temp path"),
                "--fsync",
                fsync,
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("optrepd spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("optrepd exited before listening")
                .expect("read optrepd stdout");
            if let Some(rest) = line.split(" listening on ").nth(1) {
                break rest.trim().parse().expect("listen address parses");
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _line in lines.map_while(Result::ok) {});
        Daemon { child, addr }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr, &connect_opts()).expect("client connects to daemon")
    }

    /// SIGKILL — the kernel yanks the process, nothing flushes.
    fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        std::mem::forget(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The never-killed mirror the daemon syncs from.
fn start_mirror(site: u32) -> Node {
    Node::start(
        NodeConfig::new(SiteId::new(site), "127.0.0.1:0".parse().expect("loopback"))
            .with_connect(connect_opts()),
    )
    .expect("mirror starts")
}

/// Deterministic half of the acceptance claim: with `fsync=always`, a
/// contact the daemon *acknowledged* survives SIGKILL outright — the
/// restarted daemon's digest equals the mirror's, not merely one of
/// two acceptable states.
#[test]
fn acked_contact_survives_sigkill_exactly() {
    let dir = scratch_dir("acked");
    let mirror = start_mirror(1);
    mirror.with_store(|s| {
        for i in 0..50 {
            s.put(format!("key{i}"), format!("value-{i}"));
        }
        s.delete("key7"); // tombstones cross the WAL too
    });
    let target = mirror.digest();

    let daemon = Daemon::spawn("A", &dir, "always");
    let mut client = daemon.client();
    client
        .sync(&mirror.addr().to_string())
        .expect("contact commits");
    assert_eq!(client.digest().expect("digest"), target);
    daemon.kill9();

    let revived = Daemon::spawn("A", &dir, "always");
    let mut client = revived.client();
    assert_eq!(
        client.digest().expect("digest after recovery"),
        target,
        "an acknowledged fsync=always contact must survive kill -9"
    );
    let metrics = client.metrics().expect("metrics");
    assert_eq!(
        metrics.gauge("optrep_store_keys"),
        Some(49),
        "50 puts minus one tombstone"
    );
    drop(revived);
    mirror.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Racing half: SIGKILL lands at staggered delays while a contact is
/// (possibly) in flight. Recovery must land on exactly one of the two
/// states the replica legitimately passed through — before the whole
/// contact, or after it — never between. The torn-tail rule plus
/// one-record-per-contact makes anything else impossible; this test
/// tries to catch that claim lying.
#[test]
fn sigkill_mid_contact_recovers_whole_contact_or_none() {
    let dir = scratch_dir("race");
    let mirror = start_mirror(1);
    let mut daemon = Some(Daemon::spawn("A", &dir, "always"));

    for (wave, delay_ms) in [0u64, 1, 2, 5, 10, 20].into_iter().enumerate() {
        // A fresh burst of mirror-side state for the contact to carry
        // (bulky values so the exchange spans many frames and the kill
        // window is wide).
        mirror.with_store(|s| {
            for i in 0..120 {
                s.put(format!("wave{wave}-key{i}"), vec![wave as u8; 1800]);
            }
        });
        let live = daemon.take().expect("daemon is running");
        let before = live.client().digest().expect("digest before contact");
        let after = mirror.digest();

        // Fire the contact from a side thread (its connection will die
        // with the daemon; any error is expected collateral)...
        let sync_addr = live.addr;
        let peer = mirror.addr().to_string();
        let contact = std::thread::spawn(move || {
            if let Ok(mut client) = Client::connect(sync_addr, &connect_opts()) {
                let _ = client.sync(&peer);
            }
        });
        // ...then SIGKILL the daemon while it is (maybe) mid-commit.
        std::thread::sleep(Duration::from_millis(delay_ms));
        live.kill9();
        let _ = contact.join();

        let revived = Daemon::spawn("A", &dir, "always");
        let recovered = revived.client().digest().expect("digest after recovery");
        assert!(
            recovered == before || recovered == after,
            "delay {delay_ms}ms: recovered digest {recovered:#x} is neither \
             pre-contact {before:#x} nor post-contact {after:#x} — a partial \
             contact leaked through recovery"
        );
        // Converge before the next wave so `before` stays meaningful.
        revived
            .client()
            .sync(&mirror.addr().to_string())
            .expect("catch-up contact");
        assert_eq!(revived.client().digest().expect("digest"), mirror.digest());
        daemon = Some(revived);
    }
    drop(daemon);
    mirror.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful half (the SIGTERM satellite): a polite kill checkpoints,
/// fsyncs, and exits 0; the restart replays an empty log. Verified
/// through the daemon's own stdout (`recovered ... wal ... applied 0`)
/// since that is the interface operators get.
#[test]
fn sigterm_checkpoints_and_exits_cleanly() {
    let dir = scratch_dir("term");
    let daemon = Daemon::spawn("A", &dir, "interval:10");
    let mut client = daemon.client();
    for i in 0..25 {
        client
            .put(&format!("key{i}"), &b"durable"[..])
            .expect("put");
    }
    let digest = client.digest().expect("digest");
    drop(client);

    // SIGTERM (15): Child::kill sends SIGKILL, so shell out.
    let pid = daemon.child.id().to_string();
    let status = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -TERM failed");
    let mut daemon = daemon;
    let exit = daemon.child.wait().expect("daemon exits");
    assert!(
        exit.success(),
        "graceful shutdown must exit 0, got {exit:?}"
    );
    std::mem::forget(daemon); // already reaped

    // Restart: everything is in the snapshot, nothing replays from WAL.
    let child = Command::new(env!("CARGO_BIN_EXE_optrepd"))
        .args([
            "--site",
            "A",
            "--listen",
            "127.0.0.1:0",
            "--data-dir",
            dir.to_str().expect("utf-8 temp path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("optrepd restarts");
    let mut revived = Daemon {
        child,
        addr: "127.0.0.1:1".parse().expect("placeholder"),
    };
    let stdout = revived.child.stdout.take().expect("stdout piped");
    let mut recovered_line = None;
    for line in std::io::BufReader::new(stdout).lines() {
        let line = line.expect("read stdout");
        if line.contains(" recovered ") {
            recovered_line = Some(line.clone());
        }
        if let Some(rest) = line.split(" listening on ").nth(1) {
            revived.addr = rest.trim().parse().expect("listen address parses");
            break;
        }
    }
    let recovered = recovered_line.expect("durable daemon prints a recovered line");
    assert!(
        recovered.contains("wal 0 applied"),
        "graceful stop must leave an empty log, got: {recovered}"
    );
    assert_eq!(revived.client().digest().expect("digest"), digest);
    drop(revived);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The SIGTERM latch is in place before the daemon says it listens: a
/// SIGTERM sent the moment the `listening on` line is read is a graceful
/// stop every time — exit 0, a `shutting down` line and a checkpoint on
/// disk. Twenty daemons in a row, each booting a log of one write that
/// the stop has to cover; the signal is sent with `kill(2)` itself, not
/// a `kill` process, so it lands as soon as it can.
#[test]
fn sigterm_at_the_ready_line_checkpoints_every_time() {
    extern "C" {
        fn kill(pid: i32, signal: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    for run in 0..20 {
        let dir = scratch_dir("ready");
        let written = Daemon::spawn("A", &dir, "always");
        written.client().put("k", &b"v"[..]).expect("put");
        written.kill9();
        let child = Command::new(env!("CARGO_BIN_EXE_optrepd"))
            .args(["--site", "A", "--listen", "127.0.0.1:0", "--data-dir"])
            .arg(&dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("optrepd spawns");
        // Killed on drop should an assertion fail.
        let mut daemon = Daemon {
            child,
            addr: "127.0.0.1:1".parse().expect("placeholder"),
        };
        let stdout = daemon.child.stdout.take().expect("stdout piped");
        let mut lines = std::io::BufReader::new(stdout)
            .lines()
            .map_while(Result::ok);
        let ready = lines.any(|line| line.contains(" listening on "));
        assert!(ready, "run {run}: optrepd exited before listening");
        let pid = i32::try_from(daemon.child.id()).expect("a pid");
        // SAFETY: `kill` takes two integers and touches no memory of ours.
        assert_eq!(unsafe { kill(pid, SIGTERM) }, 0, "run {run}: kill(2)");
        let rest: Vec<String> = lines.collect();
        let exit = daemon.child.wait().expect("daemon exits");
        assert!(exit.success(), "run {run}: {exit:?}, then {rest:?}");
        assert!(
            rest.iter().any(|line| line.contains(" shutting down")),
            "run {run}: {rest:?}"
        );
        let snapshot = dir.join(optrep_server::persist::SNAPSHOT_FILE);
        assert!(
            snapshot.is_file(),
            "run {run}: no checkpoint at {snapshot:?}"
        );
        std::mem::forget(daemon); // already reaped
        let _ = std::fs::remove_dir_all(&dir);
    }
}
