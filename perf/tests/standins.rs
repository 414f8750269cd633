//! The stand-ins under `perf/stubs/` must behave, on the surface the
//! program uses, like the crates they replace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn gen_range_stays_in_range_for_every_width_used() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..20_000 {
        assert!((3u8..9).contains(&rng.gen_range(3u8..9)));
        assert!((10u32..11).contains(&rng.gen_range(10u32..11)));
        assert!((0u32..1_000_003).contains(&rng.gen_range(0u32..1_000_003)));
        assert!(rng.gen_range(0u64..(1 << 40)) < (1 << 40));
        assert!(rng.gen_range(0usize..17) < 17);
        assert!(rng.gen_range(0usize..=5) <= 5);
        assert!((-4i32..4).contains(&rng.gen_range(-4i32..4)));
        assert!((i64::MIN..=i64::MAX).contains(&rng.gen_range(i64::MIN..=i64::MAX)));
        let x = rng.gen_range(-1.5f64..2.5);
        assert!((-1.5..2.5).contains(&x));
        let u: f64 = rng.gen();
        assert!((0.0..1.0).contains(&u));
    }
}

#[test]
fn gen_range_reaches_both_ends_and_gen_bool_follows_p() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut seen = [false; 4];
    let mut heads = 0;
    for _ in 0..4_000 {
        seen[rng.gen_range(0usize..=3)] = true;
        heads += usize::from(rng.gen_bool(0.25));
    }
    assert_eq!(seen, [true; 4]);
    assert!((800..1200).contains(&heads), "{heads} of 4000 at p = 0.25");
    assert!(!rng.gen_bool(0.0) && rng.gen_bool(1.0));
}

#[test]
fn seed_from_u64_is_stable() {
    // xoshiro256** seeded by splitmix64 (values from an independent
    // implementation); pinned so generated graphs (and
    // with them perf/expected/*.json) cannot drift silently.
    let mut rng = StdRng::seed_from_u64(42);
    let first: Vec<u64> = (0..4).map(|_| rng.gen()).collect();
    assert_eq!(
        first,
        [0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1]
    );
    assert_eq!(StdRng::seed_from_u64(42), StdRng::seed_from_u64(42));
    assert_ne!(StdRng::seed_from_u64(42), StdRng::seed_from_u64(43));
}

#[test]
fn same_seed_same_graph() {
    let spec = sgp_perf::api::GraphSpec::Rmat { scale: 8, edge_factor: 4 };
    let (a, b, c) = (spec.build(5), spec.build(5), spec.build(6));
    assert!(a.edges().eq(b.edges()));
    assert!(!a.edges().eq(c.edges()));
}

/// The hand-off pattern of `sgp-partition::exec`: depth-1 channels, work
/// down and a log back up per round; workers leave their `recv` loop
/// when the coordinator drops the work sender.
#[test]
fn bounded_one_hands_off_and_disconnects_like_exec_expects() {
    use crossbeam::channel::bounded;
    let rounds = crossbeam::thread::scope(|scope| {
        let (work_tx, work_rx) = bounded::<u32>(1);
        let (log_tx, log_rx) = bounded::<u32>(1);
        let worker = scope.spawn(move |_| {
            let mut served = 0;
            while let Ok(x) = work_rx.recv() {
                if log_tx.send(x * 2).is_err() {
                    return served;
                }
                served += 1;
            }
            served
        });
        for x in 0..50 {
            work_tx.send(x).expect("worker hung up");
            assert_eq!(log_rx.recv().expect("worker hung up"), x * 2);
        }
        drop(work_tx);
        worker.join().expect("worker panicked")
    })
    .expect("scope");
    assert_eq!(rounds, 50);
}

#[test]
fn bounded_one_blocks_the_second_send_until_a_receive() {
    use crossbeam::channel::bounded;
    use std::sync::atomic::{AtomicBool, Ordering};
    let (tx, rx) = bounded::<u8>(1);
    let (ready_tx, ready_rx) = bounded::<()>(0);
    let second_sent = AtomicBool::new(false);
    crossbeam::thread::scope(|scope| {
        scope.spawn(|_| {
            tx.send(1).expect("first send fills the slot");
            ready_tx.send(()).expect("main is waiting");
            tx.send(2).expect("second send waits for room");
            second_sent.store(true, Ordering::SeqCst);
        });
        // Rendezvous: the slot is full and the sender is about to block.
        ready_rx.recv().expect("sender is running");
        assert!(!second_sent.load(Ordering::SeqCst), "capacity is 1");
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    })
    .expect("scope");
    assert!(second_sent.load(Ordering::SeqCst));
}

#[test]
fn channel_ends_report_disconnection() {
    use crossbeam::channel::bounded;
    let (tx, rx) = bounded::<u8>(1);
    tx.send(9).expect("room for one");
    drop(tx);
    assert_eq!(rx.recv(), Ok(9), "a buffered message survives the sender");
    assert!(rx.recv().is_err());
    let (tx, rx) = bounded::<u8>(1);
    drop(rx);
    assert!(tx.send(1).is_err());
}

#[test]
fn wire_header_is_sixteen_big_endian_bytes_through_the_bytes_stand_in() {
    use sgp_engine::wire::{encode, encoded_len, MessageKind, HEADER_BYTES};
    let msg = encode(MessageKind::VertexUpdate, 0x0102_0304, 0x0a0b_0c0d, &[0xAA, 0xBB, 0xCC]);
    assert_eq!(HEADER_BYTES, 16);
    assert_eq!(msg.len(), encoded_len(3));
    assert_eq!(
        &msg[..],
        &[
            1, // kind
            0x01, 0x02, 0x03, 0x04, // iteration
            0x0a, 0x0b, 0x0c, 0x0d, // vertex
            0, 0, 0, 3, // payload length
            0, 0, 0, // padding to 16
            0xAA, 0xBB, 0xCC,
        ]
    );
    assert_eq!(encode(MessageKind::GatherPartial, 0, 0, &[])[0], 0);
}

#[test]
fn bytes_mut_grows_past_its_initial_capacity() {
    use bytes::{BufMut, BytesMut};
    let mut buf = BytesMut::with_capacity(1);
    buf.put_u8(7);
    buf.put_u32(0xDEAD_BEEF);
    buf.put_bytes(0xFF, 3);
    buf.put_slice(b"xy");
    assert_eq!(&buf.freeze()[..], &[7, 0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF, 0xFF, b'x', b'y']);
}
