//! Frozen crash differential: the destructive crash path against images,
//! event streams, and counters recorded before the crash-drain code was
//! restated as one drain plan.
//!
//! For the golden-trace workloads (hashmap, rtree) × every mode × both
//! battery states × three op-count cut points, a forked machine is
//! crashed and three FNV-1a digests are pinned: the crash image, the
//! merged `take_events()` stream (every pre-crash event plus the crash
//! drain's `Crash` / `PbDrain` / `NvmmWrite` events), and `stats()` after
//! the crash. A drain that drops, adds, or reorders a media write, a
//! trace event, or a counter bump changes a digest.
//!
//! Regenerate with `BBB_REGEN_GOLDEN=1 cargo test -p bbb-crashfuzz
//! --test crash_differential` — but a diff here is a change to crash
//! semantics and must be justified, not refreshed away.

use std::fmt::Write as _;
use std::path::PathBuf;

use bbb_core::{BatchStream, PersistencyMode, RunCursor, StopAt, System};
use bbb_sim::SimConfig;
use bbb_workloads::suite::with_epoch_barriers;
use bbb_workloads::{make_workload, WorkloadKind, WorkloadParams};

/// The golden-trace parameters (`tests/golden_trace.rs`).
fn params() -> WorkloadParams {
    WorkloadParams {
        initial: 48,
        per_core_ops: 40,
        seed: 0x60_1D_7A_CE,
        instrument: false,
    }
}

/// Op-count cut points: early (cold caches, first buffer fills), middle,
/// and late — every one inside the shortest golden run (594 ops).
const CUTS: [u64; 3] = [37, 211, 577];

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn mode_slug(mode: PersistencyMode) -> &'static str {
    match mode {
        PersistencyMode::Pmem => "pmem",
        PersistencyMode::Eadr => "eadr",
        PersistencyMode::BbbMemorySide => "bbb_mem",
        PersistencyMode::BbbProcessorSide => "bbb_proc",
        PersistencyMode::Bep => "bep",
    }
}

/// One line per `(cut, battery state)` of one `(workload, mode)` pair.
fn render(kind: WorkloadKind, mode: PersistencyMode, out: &mut String) {
    let cfg = SimConfig::small_for_tests();
    let mut params = params();
    params.instrument = mode.requires_flushes();
    let mut w = make_workload(kind, &cfg, params);
    if mode.requires_epoch_barriers() {
        w = with_epoch_barriers(w);
    }
    let mut w = BatchStream::new(w);
    let mut sys = System::new(cfg.clone(), mode).expect("valid config");
    sys.set_tracing(true);
    sys.prepare_stream(&mut w);
    let mut cursor = RunCursor::new(cfg.cores);
    for cut in CUTS {
        sys.run_until(&mut w, &mut cursor, StopAt::Ops(cut), None);
        for battery_ok in [true, false] {
            let mut fork = sys.clone();
            let image = fork.crash_now(battery_ok);
            let events = fork.take_events();
            let event_text: String = events
                .iter()
                .map(|e| format!("{e} @{}\n", e.cycle()))
                .collect();
            let image_bytes = image.as_store().iter_pages().flat_map(|(base, page)| {
                base.to_le_bytes().into_iter().chain(page.iter().copied())
            });
            let _ = writeln!(
                out,
                "{} {} ops={} battery={} image={:016x} events={}:{:016x} stats={:016x}",
                kind.name(),
                mode_slug(mode),
                cursor.ops(),
                if battery_ok { "ok" } else { "dropped" },
                fnv(image_bytes),
                events.len(),
                fnv(event_text.bytes()),
                fnv(fork.stats().to_string().bytes()),
            );
        }
    }
}

#[test]
fn crash_now_matches_frozen_images_events_and_stats() {
    let mut actual = String::new();
    for kind in [WorkloadKind::Hashmap, WorkloadKind::Rtree] {
        for mode in PersistencyMode::ALL {
            render(kind, mode, &mut actual);
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_crash/crash_now.txt");
    if std::env::var_os("BBB_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with BBB_REGEN_GOLDEN=1 to create",
            path.display()
        )
    });
    for (i, (exp, act)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(exp, act, "crash differential diverged at line {}", i + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "line count"
    );
}
