//! Access-engine fast-path equivalence: the batched trace pipeline and
//! the snapshot/fork mechanism must be *observationally invisible*.
//!
//! The batched engine (`System::run_batch`) translates once per page
//! run instead of once per line, but charges the identical per-line
//! cycle sequence as the public per-op calls (`read_bytes`,
//! `write_bytes`, `write_pattern`). `System::snapshot`/`Snapshot::fork`
//! clone the whole stack so sweeps fork their measured phase from one
//! shared warm-up instead of replaying it. This suite pins both to the
//! behaviour they replace: same metrics, same probe event stream, same
//! Merkle root, bit for bit — and checks the epoch sampler survives
//! snapshot/restore without double-counting an interval.

mod golden;

use lelantus::os::{CowStrategy, ProcessId};
use lelantus::sim::{
    AccessBatch, Event, EventKind, RingProbe, SimConfig, SimMetrics, System, Trace, TraceHeader,
    TraceRecorder,
};
use lelantus::trace::{Record, TraceOpKind};
use lelantus::types::{PageSize, VirtAddr};
use lelantus::workloads::forkbench::Forkbench;
use lelantus::workloads::rediswl::Redis;
use lelantus::workloads::Workload;
use proptest::prelude::*;

/// Everything externally observable about one workload run: final
/// metrics, exact event totals, the retained event stream, and the
/// integrity-tree root over the final NVM image.
type Observation = (SimMetrics, [u64; EventKind::COUNT], Vec<Event>, u64);

fn assert_observations_match(fast: &Observation, slow: &Observation, what: &str) {
    assert_eq!(fast.0, slow.0, "metrics diverged: {what}");
    assert_eq!(fast.1, slow.1, "event totals diverged: {what}");
    assert_eq!(fast.2, slow.2, "event streams diverged: {what}");
    assert_eq!(fast.3, slow.3, "merkle roots diverged: {what}");
}

// ---------------------------------------------------------------------
// Batched driver vs the per-op calls
// ---------------------------------------------------------------------

/// One step of a random op soup: `((kind, process slot, core), offset,
/// length, tag)`. Kind 0 forks the chosen process; 1-2 read, 3-4 write
/// bytes and 5-6 write a pattern at `offset` into the shared mapping;
/// 7 ends the current batch early.
type Step = ((u8, u8, u8), u32, u16, u8);

fn soup() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(((0u8..8, 0u8..4, 0u8..4), any::<u32>(), 1u16..=320, any::<u8>()), 1..48)
}

/// Runs `steps` on two identical systems over a mapping of `map_bytes`
/// — through `run_batch` on one (consecutive accesses of one process
/// on one core form a batch) and through `read_bytes`/`write_bytes`/
/// `write_pattern` on the other — and returns both observations.
fn batched_and_per_op(
    strategy: CowStrategy,
    page: PageSize,
    map_bytes: u64,
    steps: &[Step],
) -> (Observation, Observation) {
    let config = || SimConfig::new(strategy, page).with_phys_bytes(64 << 20);
    let (pa, pb) = (RingProbe::new(1 << 16), RingProbe::new(1 << 16));
    let mut batched = System::with_probe(config(), pa.clone());
    let mut per_op = System::with_probe(config(), pb.clone());
    let init = batched.spawn_init();
    assert_eq!(per_op.spawn_init(), init);
    let va = batched.mmap(init, map_bytes).unwrap();
    assert_eq!(per_op.mmap(init, map_bytes).unwrap(), va);

    let mut pids = vec![init];
    let mut batch = AccessBatch::new();
    let mut owner: Option<(ProcessId, usize)> = None;
    let flush = |sys: &mut System<RingProbe>,
                 batch: &mut AccessBatch,
                 owner: &mut Option<(ProcessId, usize)>| {
        if let Some((pid, core)) = owner.take() {
            sys.use_core(core);
            sys.run_batch(pid, batch).unwrap();
            batch.clear();
        }
    };
    for &((kind, slot, core), offset, len, tag) in steps {
        let pid = pids[slot as usize % pids.len()];
        let core = core as usize;
        let len = len as usize;
        let at = va + u64::from(offset) % (map_bytes - len as u64);
        if kind == 0 || kind == 7 || owner.is_some_and(|o| o != (pid, core)) {
            flush(&mut batched, &mut batch, &mut owner);
        }
        match kind {
            0 => {
                if pids.len() < 4 {
                    let child = batched.fork(pid).unwrap();
                    assert_eq!(per_op.fork(pid).unwrap(), child);
                    pids.push(child);
                }
                continue;
            }
            7 => continue,
            _ => {}
        }
        owner = Some((pid, core));
        per_op.use_core(core);
        match kind {
            1 | 2 => {
                batch.push_read(at, len);
                per_op.read_bytes(pid, at, len).unwrap();
            }
            3 | 4 => {
                let bytes: Vec<u8> = (0..len).map(|i| tag ^ i as u8).collect();
                batch.push_write(at, &bytes);
                per_op.write_bytes(pid, at, &bytes).unwrap();
            }
            _ => {
                batch.push_pattern(at, len, tag);
                per_op.write_pattern(pid, at, len, tag).unwrap();
            }
        }
    }
    flush(&mut batched, &mut batch, &mut owner);
    let observe = |sys: &mut System<RingProbe>, probe: &RingProbe| -> Observation {
        let metrics = sys.finish();
        (metrics, probe.counts(), probe.events(), sys.merkle_root())
    };
    (observe(&mut batched, &pa), observe(&mut per_op, &pb))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_batched_soup_matches_per_op_calls_on_4k_pages(scheme in 0usize..4, steps in soup()) {
        let strategy = CowStrategy::all()[scheme];
        let (batched, per_op) =
            batched_and_per_op(strategy, PageSize::Regular4K, 4 * 4096, &steps);
        assert_observations_match(&batched, &per_op, &format!("4K soup under {strategy}"));
    }

    #[test]
    fn prop_batched_soup_matches_per_op_calls_on_2m_pages(scheme in 0usize..4, steps in soup()) {
        let strategy = CowStrategy::all()[scheme];
        let (batched, per_op) = batched_and_per_op(strategy, PageSize::Huge2M, 4 << 20, &steps);
        assert_observations_match(&batched, &per_op, &format!("2M soup under {strategy}"));
    }
}

// ---------------------------------------------------------------------
// Batched workloads vs their per-op replays
// ---------------------------------------------------------------------

fn observe(sys: &mut System<RingProbe>) -> Observation {
    let metrics = sys.finish();
    let probe = sys.probe().clone();
    (metrics, probe.counts(), probe.events(), sys.merkle_root())
}

/// Replays `trace` through the public per-op calls: every op of a
/// batch record becomes one `read_bytes`/`write_bytes`/`write_pattern`
/// and every other record its own call. The pids, mapping bases and
/// Merkle roots the recording saw must recur.
fn replay_per_op(sys: &mut System<RingProbe>, trace: &Trace) {
    for record in trace.records() {
        match record.expect("recorded trace decodes") {
            Record::Batch(b) => {
                for op in b.ops() {
                    let op = op.expect("batch op decodes");
                    let (va, len) = (VirtAddr::new(op.va), op.len as usize);
                    match op.kind {
                        TraceOpKind::Read => {
                            sys.read_bytes(b.pid, va, len).unwrap();
                        }
                        TraceOpKind::Write { data_off } => {
                            let data = &b.data[data_off as usize..][..len];
                            sys.write_bytes(b.pid, va, data).unwrap();
                        }
                        TraceOpKind::Pattern { tag } => {
                            sys.write_pattern(b.pid, va, len, tag).unwrap();
                        }
                    }
                }
            }
            Record::SpawnInit { pid } => assert_eq!(sys.spawn_init(), pid),
            Record::Mmap { pid, len, page_size, va } => {
                assert_eq!(sys.mmap_with(pid, len, page_size).unwrap().as_u64(), va);
            }
            Record::Fork { parent, child } => assert_eq!(sys.fork(parent).unwrap(), child),
            Record::Exit { pid } => sys.exit(pid).unwrap(),
            Record::Munmap { pid, va } => sys.munmap(pid, VirtAddr::new(va)).unwrap(),
            Record::MadviseDontneed { pid, va, len } => {
                sys.madvise_dontneed(pid, VirtAddr::new(va), len).unwrap();
            }
            Record::Mprotect { pid, va, writable } => {
                sys.mprotect(pid, VirtAddr::new(va), writable).unwrap();
            }
            Record::KsmMerge(pairs) => {
                let pairs: Vec<_> = pairs
                    .map(|pair| pair.map(|(pid, va)| (pid, VirtAddr::new(va))).unwrap())
                    .collect();
                sys.ksm_merge(&pairs).unwrap();
            }
            Record::UseCore { core } => sys.use_core(usize::from(core)),
            Record::SyncCores => sys.sync_cores(),
            Record::Finish => {
                sys.finish();
            }
            Record::WriteNt { pid, va, data } => {
                sys.write_bytes_nt(pid, VirtAddr::new(va), data).unwrap();
            }
            Record::CrashRecover => {
                sys.crash_and_recover().unwrap();
            }
            Record::ResetFootprint => sys.reset_footprint(),
            Record::MerkleRoot { root } => assert_eq!(sys.merkle_root(), root),
        }
    }
}

/// Runs `wl` through `run_batch` with a trace recorder attached, then
/// replays the recorded calls one op at a time on a second system;
/// both must match each other and the golden cell recorded while the
/// per-line reference driver was selectable and proven equal.
fn assert_batched_matches_reference(
    group: &str,
    wl: &dyn Workload<RingProbe>,
    strategy: CowStrategy,
    page: PageSize,
) {
    let what = format!("{} under {strategy}", wl.name());
    let dir = std::env::temp_dir().join("lelantus-access-fastpath");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}-{}-{strategy:?}-{page:?}.ltr", std::process::id(), wl.name()));
    let (line, mut batched) = golden::run_cell(group, wl.name(), strategy, page, PHYS, |sys| {
        let config = sys.config();
        let header =
            TraceHeader { page_size: config.page_size, phys_bytes: config.kernel.phys_bytes };
        let rec = TraceRecorder::create(&path, header).expect("create trace");
        sys.record_into(rec.clone());
        let run = wl.run(sys).unwrap_or_else(|e| panic!("{what}: {e}"));
        sys.stop_recording();
        rec.finish().expect("seal trace");
        Some(run)
    });
    golden::assert_committed(&line);
    let trace = Trace::open(&path).expect("open recorded trace");
    let (_, mut per_op) = golden::run_cell(group, wl.name(), strategy, page, PHYS, |sys| {
        replay_per_op(sys, &trace);
        None
    });
    drop(trace);
    let _ = std::fs::remove_file(&path);
    assert_observations_match(&observe(&mut batched), &observe(&mut per_op), &what);
}

/// Physical memory of the workload cells.
const PHYS: Option<u64> = Some(64 << 20);

#[test]
fn batched_forkbench_is_bit_identical_to_reference() {
    // Forkbench covers the faulting side: every measured write runs
    // into a CoW page, so runs split at fault boundaries constantly.
    for strategy in [CowStrategy::Baseline, CowStrategy::Lelantus, CowStrategy::LelantusCow] {
        assert_batched_matches_reference(
            "suite",
            &Forkbench::small(),
            strategy,
            PageSize::Regular4K,
        );
    }
}

#[test]
fn batched_forkbench_matches_reference_on_huge_pages() {
    assert_batched_matches_reference(
        "access",
        &golden::huge_forkbench(),
        CowStrategy::Lelantus,
        PageSize::Huge2M,
    );
}

#[test]
fn batched_rediswl_is_bit_identical_to_reference() {
    // Redis covers the multi-core side: parent and scanning child
    // interleave on different cores at request granularity.
    assert_batched_matches_reference(
        "suite",
        &Redis::small(),
        CowStrategy::Lelantus,
        PageSize::Regular4K,
    );
}

// ---------------------------------------------------------------------
// Snapshot/fork vs fresh replay
// ---------------------------------------------------------------------

#[test]
fn snapshot_fork_measures_identically_to_a_fresh_replay() {
    let wl = Forkbench { total_bytes: 1 << 20, bytes_per_page: Some(1) };
    let config =
        || SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K).with_phys_bytes(64 << 20);

    // Fresh replay: setup and measure on one system.
    let probe = RingProbe::new(1 << 16);
    let mut fresh = System::with_probe(config(), probe.clone());
    let fresh_run = wl.run(&mut fresh).unwrap();
    let fresh_obs: Observation =
        (fresh.finish(), probe.counts(), probe.events(), fresh.merkle_root());

    // Snapshot fork: setup once, fork the measured phase. The fork
    // shares the warm system's ring, so the combined stream must equal
    // the sequential run's.
    let probe = RingProbe::new(1 << 16);
    let mut warm = System::with_probe(config(), probe.clone());
    let state = wl.setup(&mut warm).unwrap();
    let snapshot = warm.snapshot();
    let mut forked = snapshot.fork();
    let forked_run = wl.measure(&mut forked, &state).unwrap();
    let forked_obs: Observation =
        (forked.finish(), probe.counts(), probe.events(), forked.merkle_root());

    assert_eq!(fresh_run.measured, forked_run.measured, "measured window diverged");
    assert_eq!(fresh_run.logical_line_writes, forked_run.logical_line_writes);
    assert_observations_match(&forked_obs, &fresh_obs, "snapshot fork vs replay");
}

#[test]
fn restore_rewinds_to_the_snapshot_point() {
    let wl = Forkbench { total_bytes: 1 << 20, bytes_per_page: Some(8) };
    let mut sys = System::new(
        SimConfig::new(CowStrategy::LelantusCow, PageSize::Regular4K).with_phys_bytes(64 << 20),
    );
    let state = wl.setup(&mut sys).unwrap();
    let snapshot = sys.snapshot();
    let first = wl.measure(&mut sys, &state).unwrap();
    let first_end = sys.finish();
    let first_root = sys.merkle_root();
    // Rewind and repeat: the second pass must be indistinguishable.
    sys.restore(&snapshot);
    let second = wl.measure(&mut sys, &state).unwrap();
    let second_end = sys.finish();
    assert_eq!(first.measured, second.measured);
    assert_eq!(first_end, second_end, "restore left residual state");
    assert_eq!(first_root, sys.merkle_root());
}

// ---------------------------------------------------------------------
// Adversarial timing: snapshot in the middle of an epoch
// ---------------------------------------------------------------------

/// The epoch series must keep summing to the run totals across a
/// mid-epoch snapshot/restore: a broken baseline (`epoch_last` newer or
/// older than the restored metrics) would double-count the straddling
/// interval or underflow `delta_since`.
#[test]
fn mid_epoch_snapshot_and_restore_keep_the_epoch_series_consistent() {
    let check_sums = |sys: &System, end: &SimMetrics, what: &str| {
        let epochs = sys.epochs();
        assert!(epochs.len() > 1, "{what}: expected several epochs, got {}", epochs.len());
        let mut writes = 0;
        let mut cycles = 0;
        for e in epochs {
            writes += e.delta.nvm.line_writes;
            cycles += e.delta.cycles.as_u64();
        }
        assert_eq!(cycles, end.cycles.as_u64(), "{what}: epoch cycles double-counted or lost");
        assert_eq!(writes, end.nvm.line_writes, "{what}: epoch writes double-counted or lost");
        for pair in epochs.windows(2) {
            assert!(pair[0].end_cycle < pair[1].end_cycle, "{what}: epochs out of order");
        }
    };

    let mut sys = System::new(
        SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K)
            .with_phys_bytes(64 << 20)
            .with_epoch_interval(20_000),
    );
    let pid = sys.spawn_init();
    let va = sys.mmap(pid, 1 << 20).unwrap();
    // Enough traffic to cross several epoch boundaries, then stop at an
    // arbitrary point inside one.
    sys.write_pattern(pid, va, 512 << 10, 0x11).unwrap();
    assert!(!sys.epochs().is_empty(), "warm-up should span epochs");
    let snapshot = sys.snapshot();

    // Path A: continue on a fork.
    let mut forked = snapshot.fork();
    forked.write_pattern(pid, va + (512 << 10), 256 << 10, 0x22).unwrap();
    let fork_end = forked.finish();
    check_sums(&forked, &fork_end, "fork");

    // Path B: let the original diverge, rewind it, then replay the
    // fork's continuation — it must land in the identical state.
    sys.write_pattern(pid, va, 1 << 20, 0x33).unwrap();
    sys.restore(&snapshot);
    sys.write_pattern(pid, va + (512 << 10), 256 << 10, 0x22).unwrap();
    let restore_end = sys.finish();
    check_sums(&sys, &restore_end, "restore");
    assert_eq!(fork_end, restore_end, "fork and restore continuations diverged");
    assert_eq!(sys.epochs(), forked.epochs(), "epoch series diverged");
}
