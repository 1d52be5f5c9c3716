//! Damaged checkpoint files never panic.
//!
//! Takes a real session checkpoint and a real serving-registry checkpoint,
//! cuts each at every byte offset and flips single bytes at a stride, and
//! feeds every damaged file through `read_checkpoint` plus restore. Each
//! case must end in a typed error, or in a restore that then runs the rest
//! of the stream to completion — never in a panic. Forged bodies that claim
//! huge lengths or nest without bound must be `Corrupt` up front.

use jit_dsms::durable::read_checkpoint;
use jit_dsms::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn tmp_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "jit-dsms-corrupt-{}-{tag}.ckpt",
        std::process::id()
    ));
    path
}

/// Every damaged variant of `bytes`: each proper prefix, then at every
/// `stride`-th offset the file with that byte inverted (which mostly breaks
/// the structure) and with its low bit flipped (which mostly keeps the
/// structure and changes a value).
fn damaged(bytes: &[u8], stride: usize) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = (0..bytes.len())
        .map(|cut| (format!("cut at {cut}"), bytes[..cut].to_vec()))
        .collect();
    for at in (0..bytes.len()).step_by(stride) {
        for mask in [0xff, 0x01] {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= mask;
            out.push((format!("flip {mask:#04x} at {at}"), flipped));
        }
    }
    out
}

/// What a damaged file led to.
#[derive(Default, Debug)]
struct Tally {
    rejected: usize,
    restored: usize,
}

/// Run `attempt` on every damaged variant of the file at `path`. A
/// truncation must be rejected; a flip may be rejected or restore (and
/// `attempt` then drives the rest of the stream); neither may panic.
fn exercise(path: &PathBuf, stride: usize, mut attempt: impl FnMut(&PathBuf) -> bool) -> Tally {
    let original = std::fs::read(path).unwrap();
    let scratch = path.with_extension("damaged");
    let mut tally = Tally::default();
    for (what, bytes) in damaged(&original, stride) {
        std::fs::write(&scratch, &bytes).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| attempt(&scratch)));
        match outcome {
            Ok(true) => {
                assert!(
                    !what.starts_with("cut"),
                    "{what}: a truncated file restored"
                );
                tally.restored += 1;
            }
            Ok(false) => tally.rejected += 1,
            Err(_) => panic!("{what}: reading or restoring the damaged file panicked"),
        }
    }
    std::fs::remove_file(&scratch).ok();
    tally
}

#[test]
fn damaged_session_checkpoints_fail_typed_or_restore() {
    let spec = parallel_workload(3, 8)
        .with_rate(1.0)
        .with_window_minutes(2.0)
        .with_duration(Duration::from_secs(60))
        .with_seed(41);
    let trace = WorkloadGenerator::generate(&spec);
    let events = DisorderSpec::new(0.2, Duration::from_secs(5), 7).apply(&trace);
    let builder = Engine::builder()
        .workload(&spec, &PlanShape::bushy(3))
        .mode(ExecutionMode::Jit(JitPolicy::default()))
        .disorder(DisorderPolicy::Bounded(Duration::from_secs(5)));
    let engine = builder.build().unwrap();
    let cut = events.len() / 2;
    let mut session = engine.session().unwrap();
    for event in &events[..cut] {
        let _ = session.push_event(event.clone()).unwrap();
    }
    let path = tmp_path("session");
    session.checkpoint_to(&path).unwrap();
    let expected = session.pushed();

    // The undamaged file restores to the same cut.
    let restored = engine.restore_file(&path).unwrap();
    assert_eq!(restored.pushed(), expected);

    let tally = exercise(&path, 7, |damaged| match engine.restore_file(damaged) {
        Err(_) => false,
        Ok(mut session) => {
            for event in &events[cut..cut + 20] {
                let _ = session.push_event(event.clone());
            }
            let _ = session.finish();
            true
        }
    });
    assert!(tally.rejected > 0 && tally.restored > 0, "{tally:?}");
    std::fs::remove_file(&path).ok();
}

fn registry_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_source("A", vec!["k".into(), "v".into()]);
    catalog.add_source("B", vec!["k".into(), "v".into()]);
    catalog
}

const QUERIES: [&str; 2] = [
    "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] WHERE A.k = B.k",
    "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] WHERE A.k = B.k AND A.v > 2",
];

fn registry() -> QueryRegistry {
    let options = ServeOptions {
        disorder: DisorderPolicy::Bounded(Duration::from_secs(2)),
        ..ServeOptions::default()
    };
    let mut registry = QueryRegistry::with_options(registry_catalog(), options);
    for query in QUERIES {
        registry.register(query).unwrap();
    }
    registry
}

/// Arrival `i` of a small two-source stream, every fifth one a second late.
fn arrival(i: u64) -> (SourceId, Timestamp, Vec<Value>) {
    let ts = i * 500 - if i % 5 == 4 { 1_000 } else { 0 };
    let values = vec![Value::int((i % 4) as i64), Value::int((i % 7) as i64)];
    (SourceId((i % 2) as u16), Timestamp(ts), values)
}

#[test]
fn damaged_registry_checkpoints_fail_typed_or_restore() {
    let mut live = registry();
    for i in 2..24 {
        let (source, ts, values) = arrival(i);
        live.push_values(source, ts, values).unwrap();
    }
    let path = tmp_path("registry");
    let body = live.checkpoint().unwrap();
    jit_dsms::durable::write_checkpoint(&path, &body).unwrap();

    let mut restored = registry();
    restored.restore(&read_checkpoint(&path).unwrap()).unwrap();
    assert_eq!(restored.arrivals(), live.arrivals());

    let tally = exercise(&path, 4, |damaged| {
        let Ok(body) = read_checkpoint(damaged) else {
            return false;
        };
        let mut registry = registry();
        if registry.restore(&body).is_err() {
            return false;
        }
        for i in 24..40 {
            let (source, ts, values) = arrival(i);
            let _ = registry.push_values(source, ts, values);
        }
        let _ = registry.finish();
        true
    });
    assert!(tally.rejected > 0 && tally.restored > 0, "{tally:?}");
    std::fs::remove_file(&path).ok();
}

/// A file whose body is `body` under a valid header.
fn forged(tag: &str, body: &[u8]) -> PathBuf {
    let path = tmp_path(tag);
    let mut bytes = b"JITDSMS-CHECKPOINT v2\n".to_vec();
    bytes.extend_from_slice(body);
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn forged_lengths_and_nesting_are_corrupt() {
    // Tag 7 opens a sequence; its LEB128 count here claims 2^60 elements.
    let mut bomb = vec![7u8];
    let mut count = 1u64 << 60;
    while count >= 0x80 {
        bomb.push((count as u8) | 0x80);
        count >>= 7;
    }
    bomb.push(count as u8);
    bomb.push(0);
    let path = forged("bomb", &bomb);
    assert!(matches!(
        read_checkpoint(&path),
        Err(CheckpointError::Corrupt(_))
    ));
    std::fs::remove_file(&path).ok();

    // A million nested one-element sequences.
    let deep: Vec<u8> = std::iter::repeat_n([7u8, 1], 1_000_000)
        .flatten()
        .chain([0])
        .collect();
    let path = forged("deep", &deep);
    assert!(matches!(
        read_checkpoint(&path),
        Err(CheckpointError::Corrupt(_))
    ));
    std::fs::remove_file(&path).ok();
}
