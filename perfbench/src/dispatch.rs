//! A trace-replay dispatcher that times every call into `System`'s
//! public surface.
//!
//! It mirrors the record `match` of `lelantus_sim::replay` but uses
//! public calls only. `run_batch_parts` is crate-private, so each
//! batch record is rebuilt into an [`AccessBatch`] and fed to
//! `System::run_batch`; that rebuild is charged to decode time. Every
//! call becomes a [`Span`], and every allocation result and Merkle root
//! the recording saw is checked, so a replay that leaves the recorded
//! trajectory fails instead of reporting numbers for other work.

use lelantus_sim::{AccessBatch, System, Trace};
use lelantus_trace::reader::Record;
use lelantus_trace::TraceOpKind;
use lelantus_types::VirtAddr;
use std::time::Instant;

/// A public `System` call the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    RunBatch,
    SpawnInit,
    Mmap,
    Fork,
    Exit,
    Munmap,
    Madvise,
    Mprotect,
    KsmMerge,
    UseCore,
    SyncCores,
    Finish,
    WriteNt,
    CrashRecover,
    ResetFootprint,
    MerkleRoot,
    /// `System::snapshot` and `System::restore` (timed outside replay).
    Snapshot,
}

impl Call {
    pub const COUNT: usize = 17;
    pub const ALL: [Call; Call::COUNT] = [
        Call::RunBatch,
        Call::SpawnInit,
        Call::Mmap,
        Call::Fork,
        Call::Exit,
        Call::Munmap,
        Call::Madvise,
        Call::Mprotect,
        Call::KsmMerge,
        Call::UseCore,
        Call::SyncCores,
        Call::Finish,
        Call::WriteNt,
        Call::CrashRecover,
        Call::ResetFootprint,
        Call::MerkleRoot,
        Call::Snapshot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::RunBatch => "run_batch",
            Call::SpawnInit => "spawn_init",
            Call::Mmap => "mmap_with",
            Call::Fork => "fork",
            Call::Exit => "exit",
            Call::Munmap => "munmap",
            Call::Madvise => "madvise_dontneed",
            Call::Mprotect => "mprotect",
            Call::KsmMerge => "ksm_merge",
            Call::UseCore => "use_core",
            Call::SyncCores => "sync_cores",
            Call::Finish => "finish",
            Call::WriteNt => "write_bytes_nt",
            Call::CrashRecover => "crash_and_recover",
            Call::ResetFootprint => "reset_footprint",
            Call::MerkleRoot => "merkle_root",
            Call::Snapshot => "snapshot",
        }
    }
}

/// One timed call: nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub call: Call,
    pub cell: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span sink shared by every cell of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Times `f` as one `call` span of `cell`.
    pub fn time<T>(&mut self, call: Call, cell: u32, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.spans.push(Span { call, cell, start_ns: self.ns(t0), end_ns: self.ns(t1) });
        out
    }
}

/// What one replay did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Replayed {
    /// Wall time of the whole replay loop.
    pub wall_ns: u64,
    /// Record decoding and batch rebuilding (0 when untimed).
    pub decode_ns: u64,
    /// Sum of the call spans (0 when untimed).
    pub calls_ns: u64,
    /// Calls issued, indexed by `Call as usize`.
    pub calls: [u64; Call::COUNT],
    /// Batch ops rebuilt plus non-temporal stores.
    pub ops: u64,
    /// Merkle roots compared against the recording.
    pub roots_checked: u64,
}

/// Per-record timing state: the time between the end of one call and
/// the start of the next is decode; the span push itself is left out
/// of both, so it shows as unaccounted time.
struct Clock<'a> {
    tracer: Option<&'a mut Tracer>,
    cell: u32,
    mark: Instant,
    decode_ns: u64,
    calls_ns: u64,
}

impl Clock<'_> {
    #[inline]
    fn begin(&mut self) -> Option<Instant> {
        self.tracer.as_ref()?;
        let t = Instant::now();
        self.decode_ns += t.duration_since(self.mark).as_nanos() as u64;
        Some(t)
    }

    #[inline]
    fn end(&mut self, call: Call, t0: Option<Instant>) {
        let (Some(t0), Some(tracer)) = (t0, self.tracer.as_mut()) else { return };
        let t1 = Instant::now();
        self.calls_ns += t1.duration_since(t0).as_nanos() as u64;
        let span = Span { call, cell: self.cell, start_ns: tracer.ns(t0), end_ns: tracer.ns(t1) };
        tracer.spans.push(span);
        self.mark = Instant::now();
    }
}

/// Replays `trace` into `sys`. With a `tracer`, every call is a span
/// of `cell`; without one, only the total wall time is taken (the
/// untraced twin that prices the tracing itself).
pub fn replay(
    sys: &mut System,
    trace: &Trace,
    cell: u32,
    tracer: Option<&mut Tracer>,
) -> Result<Replayed, String> {
    let header = trace.header();
    if header.page_size != sys.config().page_size
        || header.phys_bytes != sys.config().kernel.phys_bytes
    {
        return Err("trace geometry differs from the replaying system".into());
    }
    let start = Instant::now();
    let mut clock = Clock { tracer, cell, mark: start, decode_ns: 0, calls_ns: 0 };
    let mut out = Replayed::default();
    let mut batch = AccessBatch::new();
    let mut pairs: Vec<(u64, VirtAddr)> = Vec::new();
    let diverged = |idx: usize, what: &str, want: u64, got: u64| {
        format!("replay diverged at record {idx}: {what} recorded {want:#x}, replayed {got:#x}")
    };

    for (idx, record) in trace.records().enumerate() {
        let record = record.map_err(|e| format!("record {idx}: {e}"))?;
        let os = |e: lelantus_os::OsError| format!("record {idx}: {e}");
        let call = match record {
            Record::Batch(b) => {
                batch.clear();
                for op in b.ops() {
                    let op = op.map_err(|e| format!("record {idx}: {e}"))?;
                    let va = VirtAddr::new(op.va);
                    let len = op.len as usize;
                    match op.kind {
                        TraceOpKind::Read => batch.push_read(va, len),
                        TraceOpKind::Write { data_off } => {
                            let off = data_off as usize;
                            let bytes = b
                                .data
                                .get(off..off + len)
                                .ok_or_else(|| format!("record {idx}: write past the arena"))?;
                            batch.push_write(va, bytes);
                        }
                        TraceOpKind::Pattern { tag } => batch.push_pattern(va, len, tag),
                    }
                }
                out.ops += batch.len() as u64;
                let t = clock.begin();
                sys.run_batch(b.pid, &batch).map_err(os)?;
                clock.end(Call::RunBatch, t);
                Call::RunBatch
            }
            Record::SpawnInit { pid } => {
                let t = clock.begin();
                let got = sys.spawn_init();
                clock.end(Call::SpawnInit, t);
                if got != pid {
                    return Err(diverged(idx, "spawn_init pid", pid, got));
                }
                Call::SpawnInit
            }
            Record::Mmap { pid, len, page_size, va } => {
                let t = clock.begin();
                let got = sys.mmap_with(pid, len, page_size).map_err(os)?;
                clock.end(Call::Mmap, t);
                if got.as_u64() != va {
                    return Err(diverged(idx, "mmap base", va, got.as_u64()));
                }
                Call::Mmap
            }
            Record::Fork { parent, child } => {
                let t = clock.begin();
                let got = sys.fork(parent).map_err(os)?;
                clock.end(Call::Fork, t);
                if got != child {
                    return Err(diverged(idx, "fork child pid", child, got));
                }
                Call::Fork
            }
            Record::Exit { pid } => {
                let t = clock.begin();
                sys.exit(pid).map_err(os)?;
                clock.end(Call::Exit, t);
                Call::Exit
            }
            Record::Munmap { pid, va } => {
                let t = clock.begin();
                sys.munmap(pid, VirtAddr::new(va)).map_err(os)?;
                clock.end(Call::Munmap, t);
                Call::Munmap
            }
            Record::MadviseDontneed { pid, va, len } => {
                let t = clock.begin();
                sys.madvise_dontneed(pid, VirtAddr::new(va), len).map_err(os)?;
                clock.end(Call::Madvise, t);
                Call::Madvise
            }
            Record::Mprotect { pid, va, writable } => {
                let t = clock.begin();
                sys.mprotect(pid, VirtAddr::new(va), writable).map_err(os)?;
                clock.end(Call::Mprotect, t);
                Call::Mprotect
            }
            Record::KsmMerge(cands) => {
                pairs.clear();
                for pair in cands {
                    let (pid, va) = pair.map_err(|e| format!("record {idx}: {e}"))?;
                    pairs.push((pid, VirtAddr::new(va)));
                }
                let t = clock.begin();
                sys.ksm_merge(&pairs).map_err(os)?;
                clock.end(Call::KsmMerge, t);
                Call::KsmMerge
            }
            Record::UseCore { core } => {
                // `use_core` panics on a bad index; fail cleanly instead.
                if usize::from(core) >= sys.cores() {
                    return Err(format!("record {idx}: core {core} out of range"));
                }
                let t = clock.begin();
                sys.use_core(usize::from(core));
                clock.end(Call::UseCore, t);
                Call::UseCore
            }
            Record::SyncCores => {
                let t = clock.begin();
                sys.sync_cores();
                clock.end(Call::SyncCores, t);
                Call::SyncCores
            }
            Record::Finish => {
                let t = clock.begin();
                sys.finish();
                clock.end(Call::Finish, t);
                Call::Finish
            }
            Record::WriteNt { pid, va, data } => {
                out.ops += 1;
                let t = clock.begin();
                sys.write_bytes_nt(pid, VirtAddr::new(va), data).map_err(os)?;
                clock.end(Call::WriteNt, t);
                Call::WriteNt
            }
            Record::CrashRecover => {
                let t = clock.begin();
                let r = sys.crash_and_recover();
                clock.end(Call::CrashRecover, t);
                r.map_err(|e| format!("record {idx}: recovery failed: {e}"))?;
                Call::CrashRecover
            }
            Record::ResetFootprint => {
                let t = clock.begin();
                sys.reset_footprint();
                clock.end(Call::ResetFootprint, t);
                Call::ResetFootprint
            }
            Record::MerkleRoot { root } => {
                let t = clock.begin();
                let got = sys.merkle_root();
                clock.end(Call::MerkleRoot, t);
                if got != root {
                    return Err(diverged(idx, "merkle root", root, got));
                }
                out.roots_checked += 1;
                Call::MerkleRoot
            }
        };
        out.calls[call as usize] += 1;
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out.decode_ns = clock.decode_ns;
    out.calls_ns = clock.calls_ns;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lelantus_os::CowStrategy;
    use lelantus_sim::{SimConfig, TraceHeader, TraceRecorder};
    use lelantus_types::PageSize;

    /// Records a run whose calls are known one by one.
    fn record_known_run(path: &std::path::Path) -> (SimConfig, lelantus_sim::SimMetrics) {
        let config = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K);
        let mut sys = System::new(config.clone());
        let header =
            TraceHeader { page_size: PageSize::Regular4K, phys_bytes: config.kernel.phys_bytes };
        let rec = TraceRecorder::create(path, header).unwrap();
        sys.record_into(rec.clone());
        let pid = sys.spawn_init(); // spawn_init
        let va = sys.mmap(pid, 64 << 10).unwrap(); // mmap
        let mut batch = AccessBatch::new();
        batch.push_write(va, &[7u8; 200]);
        batch.push_pattern(va + 4096, 8192, 0xAB);
        batch.push_read(va, 64);
        sys.run_batch(pid, &batch).unwrap(); // run_batch (3 ops)
        let child = sys.fork(pid).unwrap(); // fork
        sys.write_pattern(child, va, 4096, 0x11).unwrap(); // run_batch (1 op)
        sys.madvise_dontneed(child, va + 8192, 4096).unwrap(); // madvise
        sys.ksm_merge(&[(pid, va + 4096), (child, va + 4096)]).unwrap(); // ksm
        sys.exit(child).unwrap(); // exit
        sys.merkle_root(); // merkle_root
        let metrics = sys.finish(); // finish
        sys.stop_recording();
        rec.finish().unwrap();
        (config, metrics)
    }

    #[test]
    fn dispatcher_counts_each_call_kind_and_reproduces_the_run() {
        let path =
            std::env::temp_dir().join(format!("perfbench-dispatch-{}.ltr", std::process::id()));
        let (config, live) = record_known_run(&path);
        let trace = Trace::open(&path).unwrap();

        let mut tracer = Tracer::new();
        let mut sys = System::new(config.clone());
        let r = replay(&mut sys, &trace, 3, Some(&mut tracer)).unwrap();
        assert_eq!(sys.metrics(), live);

        let expect = [
            (Call::SpawnInit, 1),
            (Call::Mmap, 1),
            (Call::RunBatch, 2),
            (Call::Fork, 1),
            (Call::Madvise, 1),
            (Call::KsmMerge, 1),
            (Call::Exit, 1),
            (Call::MerkleRoot, 1),
            (Call::Finish, 1),
        ];
        for (call, n) in expect {
            assert_eq!(r.calls[call as usize], n, "{}", call.name());
        }
        let total: u64 = r.calls.iter().sum();
        assert_eq!(total, 10, "no other call kinds: {:?}", r.calls);
        assert_eq!(r.ops, 4);
        assert_eq!(r.roots_checked, 1);

        // One span per call, all tagged with the cell, and the spans
        // plus decode never exceed the replay's wall time.
        assert_eq!(tracer.spans.len() as u64, total);
        assert!(tracer.spans.iter().all(|s| s.cell == 3 && s.end_ns >= s.start_ns));
        let span_ns: u64 = tracer.spans.iter().map(Span::ns).sum();
        assert_eq!(span_ns, r.calls_ns);
        assert!(r.calls_ns + r.decode_ns <= r.wall_ns);

        // The untimed twin issues the same calls and records nothing.
        let mut sys = System::new(config);
        let u = replay(&mut sys, &trace, 3, None).unwrap();
        assert_eq!(u.calls, r.calls);
        assert_eq!((u.decode_ns, u.calls_ns), (0, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_different_scheme_fails_the_root_check() {
        let path =
            std::env::temp_dir().join(format!("perfbench-diverge-{}.ltr", std::process::id()));
        record_known_run(&path);
        let trace = Trace::open(&path).unwrap();
        let mut sys = System::new(SimConfig::new(CowStrategy::Baseline, PageSize::Regular4K));
        let err = replay(&mut sys, &trace, 0, None).unwrap_err();
        assert!(err.contains("merkle root"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
