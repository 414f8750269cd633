//! Loom model of the merge barrier in the threaded execution backend
//! (`src/exec.rs`): L workers each publish a decision log for the
//! round, the coordinator joins them at the barrier and replays the
//! logs in seeded rotation order (`loaders::merge_start`). Loom
//! exhaustively explores thread interleavings and proves the merged
//! sequence is a pure function of the logs — worker *timing* can never
//! reorder decisions, which is exactly the bit-identity contract
//! `partition_threaded` makes against the modelled loader path.
//!
//! Not built by default: `loom` is a CI-only dev-dependency. The loom
//! workflow job runs `cargo add loom --dev -p sgp-partition` on the
//! runner and then tests with `RUSTFLAGS="--cfg loom"`; in a normal
//! build this whole file is compiled out by the `cfg(loom)` gate.

#![cfg(loom)]

use loom::sync::{Arc, Mutex};
use loom::thread;

/// Replays per-worker logs in rotation order starting at `start`,
/// mirroring the replay loop at the barrier in `exec.rs`/`loaders.rs`
/// (`start` stands in for `merge_start(seed, round, l)`).
fn merge(logs: &[Vec<u32>], start: usize) -> Vec<u32> {
    let l = logs.len();
    let mut out = Vec::new();
    for i in 0..l {
        out.extend_from_slice(&logs[(start + i) % l]);
    }
    out
}

/// Every interleaving of the workers publishing their round logs must
/// produce the same merged decision sequence: the barrier (join) plus
/// the fixed rotation make the merge scheduling-independent.
#[test]
fn merge_barrier_is_interleaving_invariant() {
    for start in [0usize, 1, 2] {
        loom::model(move || {
            const L: usize = 3;
            let slots: Arc<Vec<Mutex<Option<Vec<u32>>>>> =
                Arc::new((0..L).map(|_| Mutex::new(None)).collect());
            let handles: Vec<_> = (0..L)
                .map(|w| {
                    let slots = Arc::clone(&slots);
                    thread::spawn(move || {
                        // A worker's log depends only on its stride of
                        // the stream (modelled by the worker id), never
                        // on when the scheduler runs it.
                        let log: Vec<u32> = (0..2).map(|i| (w * 10 + i) as u32).collect();
                        *slots[w].lock().unwrap() = Some(log);
                    })
                })
                .collect();
            // The barrier: no log is consumed before every worker has
            // published.
            for h in handles {
                h.join().unwrap();
            }
            let logs: Vec<Vec<u32>> = slots
                .iter()
                .map(|s| s.lock().unwrap().take().expect("worker published its log"))
                .collect();
            let pure: Vec<Vec<u32>> =
                (0..L).map(|w| (0..2).map(|i| (w * 10 + i) as u32).collect()).collect();
            assert_eq!(merge(&logs, start), merge(&pure, start));
        });
    }
}
