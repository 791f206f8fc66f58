//! Regression test for a lost wake-up in daemon shutdown: the shutdown
//! flag and its notification must not slip between an idle worker's flag
//! check and its condvar wait, or that worker sleeps forever and
//! `ServerHandle::join` hangs. A fresh daemon is started and stopped many
//! times so the window is hit if it exists; the whole loop runs under a
//! wall deadline, so a hang fails the test instead of stalling the suite.

use gpm_serve::{start, ServeConfig};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const CYCLES: usize = 2000;
const DEADLINE: Duration = Duration::from_secs(60);

#[test]
fn start_shutdown_join_never_hangs() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for cycle in 0..CYCLES {
            let cfg = ServeConfig { workers: 8, ..ServeConfig::default() };
            let handle = start(cfg).expect("daemon starts");
            handle.shutdown();
            let summary = handle.join();
            assert_eq!(summary.completed, 0, "cycle {cycle}");
            assert!(summary.threads_joined >= 9, "cycle {cycle}: acceptor + 8 workers");
            tx.send(cycle).unwrap();
        }
    });
    let deadline = Instant::now() + DEADLINE;
    for done in 0..CYCLES {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("start -> shutdown -> join hung: {done} of {CYCLES} cycles in {DEADLINE:?}")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("cycle thread failed"),
        }
    }
}
