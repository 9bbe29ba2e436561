//! The traced mode: per-layer metrics.
//!
//! Per cell it runs the cell live and untraced, records it with
//! `System::record_into`, replays the recording through the timing
//! dispatcher (and once more untimed, to price the tracing), and runs
//! it once with the tail recorder armed. The `observed` cells then run
//! once with each observability plane armed alone. Host times come
//! from the spans; counts come from `SimMetrics`; simulated cycles per
//! category come from the cycle ledger. Per-event host costs of each
//! layer's hot call come from [`crate::micro`].

use crate::cells::{App, Bench, Cell, DigestTable, Outcome, Planes};
use crate::dispatch::{self, Call, Tracer};
use crate::micro::Costs;
use crate::stats::{self, ratio};
use crate::timed::line_accesses;
use crate::{Metric, Report};
use lelantus_obs::{CycleCategory, CycleLedger, HdrHistogram};
use lelantus_sim::{SimMetrics, Snapshot, System, Trace, TraceHeader, TraceRecorder};
use lelantus_workloads::stormwl::StormState;
use std::path::Path;
use std::time::Instant;

/// Totals over the cells of one traced run.
#[derive(Default)]
pub(crate) struct Totals {
    /// Live metrics of the recorded phase of every cell that passed
    /// its checks.
    live: Vec<SimMetrics>,
    live_s: f64,
    replay_wall_s: f64,
    untimed_replay_s: f64,
    decode_s: f64,
    calls_s: f64,
    trace_bytes: u64,
    replay_ops: u64,
    /// Planes-off and single-plane wall times of the observed cells.
    planes_off_s: f64,
    armed_s: [f64; 3],
    ledger: CycleLedger,
    faults: HdrHistogram,
}

/// Where a cell's recorded phase starts: `None` for a fresh system,
/// or (storm) the post-setup snapshot and the state `Storm::measure`
/// needs, so that the recording, like a timed iteration, holds only
/// the storm phase.
type Start = Option<(Snapshot, StormState)>;

fn fresh(cell: &Cell, start: &Start) -> System {
    match start {
        Some((snap, _)) => snap.fork(),
        None => System::new(cell.config(Planes::OFF)),
    }
}

/// Runs the cell's recorded phase on `sys`.
fn phase(cell: &Cell, sys: &mut System, seed: u64, start: &Start) -> Result<Outcome, String> {
    match start {
        Some((_, state)) => crate::cells::storm()
            .measure(sys, state)
            .map(|run| Outcome::read(sys, run.measured))
            .map_err(|e| format!("{cell}: {e}")),
        None => cell.run(sys, seed),
    }
}

/// Runs `cell` live and untraced; returns its outcome, the wall time of
/// its recorded phase, and where that phase starts. The storm is set up
/// and snapshotted first, and its phase runs on a fork of the snapshot,
/// as a timed storm iteration does; both are timed as `snapshot` spans.
fn live(
    cell: &Cell,
    idx: u32,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Outcome, f64, Start), String> {
    let start = if cell.app == App::Storm {
        let mut sys = System::new(cell.config(Planes::OFF));
        let state = crate::cells::storm().setup(&mut sys).map_err(|e| format!("{cell}: {e}"))?;
        Some((tracer.time(Call::Snapshot, idx, || sys.snapshot()), state))
    } else {
        None
    };
    let mut sys = match &start {
        Some((snap, _)) => tracer.time(Call::Snapshot, idx, || snap.fork()),
        None => System::new(cell.config(Planes::OFF)),
    };
    let t = Instant::now();
    let o = phase(cell, &mut sys, seed, &start)?;
    Ok((o, t.elapsed().as_secs_f64(), start))
}

/// Records the cell's phase into `path`.
fn record(cell: &Cell, seed: u64, start: &Start, path: &Path) -> Result<(), String> {
    let config = cell.config(Planes::OFF);
    let header = TraceHeader { page_size: config.page_size, phys_bytes: config.kernel.phys_bytes };
    let rec =
        TraceRecorder::create(path, header).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sys = fresh(cell, start);
    sys.record_into(rec.clone());
    let r = phase(cell, &mut sys, seed, start);
    sys.stop_recording();
    rec.finish().map_err(|e| format!("{}: {e}", path.display()))?;
    r.map(|_| ())
}

/// [`Cell::run_armed`] with its wall time.
fn armed(cell: &Cell, planes: Planes, seed: u64) -> Result<(Outcome, f64, System), String> {
    let t = Instant::now();
    let (o, sys) = cell.run_armed(planes, seed)?;
    Ok((o, t.elapsed().as_secs_f64(), sys))
}

fn traced_cell(
    cell: &Cell,
    idx: u32,
    seed: u64,
    out_dir: &Path,
    digests: Option<&DigestTable>,
    tracer: &mut Tracer,
    tot: &mut Totals,
) -> Result<(), String> {
    let (live_o, live_s, start) = live(cell, idx, seed, tracer)?;
    if let Some(table) = digests {
        table.check(&cell.to_string(), live_o.digest())?;
    }

    let path = out_dir.join(format!("cell-{idx}.ltr"));
    record(cell, seed, &start, &path)?;
    let trace = Trace::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sys = fresh(cell, &start);
    let r = dispatch::replay(&mut sys, &trace, idx, Some(tracer))
        .map_err(|e| format!("{cell}: {e}"))?;
    if sys.metrics() != live_o.metrics {
        return Err(format!("{cell}: traced replay's SimMetrics differ from the live run"));
    }
    let mut sys = fresh(cell, &start);
    let u = dispatch::replay(&mut sys, &trace, idx, None).map_err(|e| format!("{cell}: {e}"))?;
    if sys.metrics() != live_o.metrics {
        return Err(format!("{cell}: untimed replay's SimMetrics differ from the live run"));
    }
    tot.trace_bytes += trace.file_bytes();
    drop(trace);
    drop(start);
    std::fs::remove_file(&path).ok();

    // The tail recorder costs little, so it runs on every cell.
    let (o, faults) = tail_phase(cell, seed)?;
    if o != live_o {
        return Err(format!("{cell}: run with the tail recorder differs from the planes-off run"));
    }
    tot.faults.merge(&faults);

    // Only a cell that passed every check adds to the totals.
    tot.live.push(cell.work(&live_o));
    tot.live_s += live_s;
    tot.replay_wall_s += r.wall_ns as f64 * 1e-9;
    tot.untimed_replay_s += u.wall_ns as f64 * 1e-9;
    tot.decode_s += r.decode_ns as f64 * 1e-9;
    tot.calls_s += r.calls_ns as f64 * 1e-9;
    tot.replay_ops += r.ops;
    Ok(())
}

/// Runs `cell` with the tail recorder armed; returns its outcome and the
/// fault-latency histogram of its recorded phase (for the storm, the
/// faults after set-up).
fn tail_phase(cell: &Cell, seed: u64) -> Result<(Outcome, HdrHistogram), String> {
    let mut sys = System::new(cell.config(Planes { tail: true, ..Planes::OFF }));
    let hist =
        |sys: &System| sys.tail_recorder().map(|t| t.histogram().clone()).unwrap_or_default();
    if cell.app != App::Storm {
        let o = cell.run(&mut sys, seed)?;
        return Ok((o, hist(&sys)));
    }
    let storm = crate::cells::storm();
    let state = storm.setup(&mut sys).map_err(|e| format!("{cell}: {e}"))?;
    let before = hist(&sys);
    let run = storm.measure(&mut sys, &state).map_err(|e| format!("{cell}: {e}"))?;
    let o = Outcome::read(&mut sys, run.measured);
    Ok((o, hist(&sys).delta_since(&before)))
}

/// The observability planes, each armed alone, on the `observed` cells
/// (the only cells where the planes run; the ledger on a 2 MB cell
/// costs minutes): overheads against a planes-off run, the ledger's
/// cycles per category, and the checks that arming changes nothing.
fn planes_cell(cell: &Cell, seed: u64, tot: &mut Totals) -> Result<(), String> {
    let (off, off_s, _) = armed(cell, Planes::OFF, seed)?;
    let mut armed_s = [0.0; 3];
    for (k, planes) in [
        Planes { ledger: true, ..Planes::OFF },
        Planes { tail: true, ..Planes::OFF },
        Planes { heat: true, ..Planes::OFF },
    ]
    .into_iter()
    .enumerate()
    {
        let (o, s, sys) = armed(cell, planes, seed)?;
        if o != off {
            return Err(format!("{cell}: run with {planes:?} differs from the planes-off run"));
        }
        if planes.ledger {
            let ledger = sys.cycle_ledger();
            if ledger.total() != o.metrics.cycles.as_u64() {
                return Err(format!("{cell}: ledger does not sum to total cycles"));
            }
            tot.ledger.merge(&ledger);
        }
        armed_s[k] = s;
    }
    tot.planes_off_s += off_s;
    for (t, a) in tot.armed_s.iter_mut().zip(armed_s) {
        *t += a;
    }
    Ok(())
}

pub fn run(
    bench: Bench,
    seed: u64,
    out_dir: &Path,
    digests: Option<&DigestTable>,
) -> Result<(Report, Vec<dispatch::Span>), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let cells = bench.cells();
    let mut tracer = Tracer::new();
    let mut tot = Totals::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    for (idx, cell) in cells.iter().enumerate() {
        attempted += 1;
        if let Err(e) = traced_cell(cell, idx as u32, seed, out_dir, digests, &mut tracer, &mut tot)
        {
            failed += 1;
            errors.push(e);
        }
    }
    for cell in Bench::Observed.cells() {
        attempted += 1;
        if let Err(e) = planes_cell(&cell, seed, &mut tot) {
            failed += 1;
            errors.push(e);
        }
    }
    let micro = crate::micro::measure();
    let metrics = per_layer(&tot, &tracer, &micro);
    print_split(&tot, &tracer, &micro);
    Ok((Report { metrics, attempted, failed, errors }, tracer.spans))
}

fn busy_s(tracer: &Tracer, call: Call) -> f64 {
    tracer.spans.iter().filter(|s| s.call == call).fold(0.0, |t, s| t + s.ns() as f64 * 1e-9)
}

/// Sum of one counter over the live cells.
fn sum(tot: &Totals, f: impl Fn(&SimMetrics) -> u64) -> u64 {
    tot.live.iter().map(f).sum()
}

/// Per-layer estimated host seconds: per-event cost times exact count.
fn estimates(tot: &Totals, micro: &Costs) -> [(&'static str, f64); 4] {
    let n = |f: fn(&SimMetrics) -> u64| sum(tot, f) as f64 * 1e-9;
    let aes_pads = n(|m| {
        let c = &m.controller;
        c.logical_reads + c.logical_writes + c.bulk_copied_lines + c.bulk_zeroed_lines
    });
    let macs = n(|m| m.controller.mac_verifications + m.controller.logical_writes);
    [
        ("cache.est_s", micro.cache_access_ns * n(line_accesses)),
        (
            "metadata.est_s",
            micro.codec_ns * n(|m| m.controller.counter_fetches + m.controller.counter_writebacks),
        ),
        (
            "crypto.est_s",
            micro.aes_line_ns * aes_pads
                + micro.mac_ns * macs
                + micro.merkle_update_ns * n(|m| m.controller.counter_writebacks),
        ),
        ("nvm.est_s", micro.nvm_write_ns * n(|m| m.nvm.line_writes)),
    ]
}

pub(crate) fn per_layer(tot: &Totals, tracer: &Tracer, micro: &Costs) -> Vec<Metric> {
    let count = |f: fn(&SimMetrics) -> u64| sum(tot, f) as f64;
    let rate = |hit: fn(&SimMetrics) -> u64, miss: fn(&SimMetrics) -> u64| {
        ratio(sum(tot, hit), sum(tot, hit) + sum(tot, miss))
    };
    let fork_us: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.call == Call::Fork)
        .map(|s| s.ns() as f64 * 1e-3)
        .collect();
    let run_batch_s = busy_s(tracer, Call::RunBatch);
    let lookups = sum(tot, |m| m.tlb.l1_hits + m.tlb.l2_hits + m.tlb.walks);
    let est = estimates(tot, micro);
    let est_sum: f64 = est.iter().map(|e| e.1).sum();
    let over =
        |k: usize| if tot.planes_off_s > 0.0 { tot.armed_s[k] / tot.planes_off_s } else { 0.0 };
    let m = Metric::new;

    let mut v = vec![
        m("sim.run_batch.busy_s", run_batch_s, "s"),
        m("sim.run_batch.ns_per_op", run_batch_s * 1e9 / count(line_accesses).max(1.0), "ns"),
        m("sim.finish.busy_s", busy_s(tracer, Call::Finish), "s"),
        m("sim.snapshot.busy_s", busy_s(tracer, Call::Snapshot), "s"),
        m("sim.tlb.walks", count(|m| m.tlb.walks), "count"),
        m("sim.tlb.front_hit_rate", ratio(sum(tot, |m| m.tlb.front_hits), lookups), "fraction"),
        m("sim.replay.wall_s", tot.replay_wall_s, "s"),
        m("sim.replay.unaccounted_s", tot.replay_wall_s - tot.decode_s - tot.calls_s, "s"),
        m(
            "sim.est_coverage",
            if run_batch_s > 0.0 { est_sum / run_batch_s } else { 0.0 },
            "fraction",
        ),
        m("os.fork.busy_s", busy_s(tracer, Call::Fork), "s"),
        m("os.fork.p99_us", stats::percentile(&fork_us, 99.0).unwrap_or(0.0), "us"),
        m("os.exit.busy_s", busy_s(tracer, Call::Exit), "s"),
        m("os.madvise.busy_s", busy_s(tracer, Call::Madvise), "s"),
        m("os.ksm_merge.busy_s", busy_s(tracer, Call::KsmMerge), "s"),
        m("os.mmap.busy_s", busy_s(tracer, Call::Mmap), "s"),
        m("os.cow_faults", count(|m| m.kernel.cow_faults), "count"),
        m("os.reuse_faults", count(|m| m.kernel.reuse_faults), "count"),
        m("os.early_reclaims", count(|m| m.kernel.early_reclaims), "count"),
        m("os.pages_freed", count(|m| m.kernel.pages_freed), "count"),
        m("os.fault_p99_cycles", tot.faults.percentile(0.99) as f64, "cycles"),
        m("core.redirected_reads", count(|m| m.controller.redirected_reads), "count"),
        m("core.implicit_copies", count(|m| m.controller.implicit_copies), "count"),
        m("core.bulk_copied_lines", count(|m| m.controller.bulk_copied_lines), "count"),
        m("core.bulk_zeroed_lines", count(|m| m.controller.bulk_zeroed_lines), "count"),
        m("core.cmd_page_copy", count(|m| m.controller.cmd_page_copy), "count"),
        m("core.cmd_page_phyc", count(|m| m.controller.cmd_page_phyc), "count"),
        m("core.cmd_page_phyc_rejected", count(|m| m.controller.cmd_page_phyc_rejected), "count"),
        m("core.cmd_page_free", count(|m| m.controller.cmd_page_free), "count"),
        m("cache.l1.hit_rate", rate(|m| m.caches.l1.hits, |m| m.caches.l1.misses), "fraction"),
        m("cache.l2.hit_rate", rate(|m| m.caches.l2.hits, |m| m.caches.l2.misses), "fraction"),
        m("cache.l3.hit_rate", rate(|m| m.caches.l3.hits, |m| m.caches.l3.misses), "fraction"),
        m("cache.l3.dirty_evictions", count(|m| m.caches.l3.dirty_evictions), "count"),
        m("cache.access_ns", micro.cache_access_ns, "ns"),
        m(
            "metadata.counter_cache.hit_rate",
            rate(|m| m.counter_cache.hits, |m| m.counter_cache.misses),
            "fraction",
        ),
        m("metadata.counter_fetches", count(|m| m.controller.counter_fetches), "count"),
        m("metadata.counter_writebacks", count(|m| m.controller.counter_writebacks), "count"),
        m("metadata.minor_overflows", count(|m| m.controller.minor_overflows), "count"),
        m(
            "metadata.cow_cache.hit_rate",
            rate(|m| m.cow_cache.hits, |m| m.cow_cache.misses),
            "fraction",
        ),
        m("metadata.mac_fetches", count(|m| m.controller.mac_fetches), "count"),
        m("metadata.mac_writebacks", count(|m| m.controller.mac_writebacks), "count"),
        m("metadata.codec_ns", micro.codec_ns, "ns"),
        m("crypto.merkle_fetches", count(|m| m.controller.merkle_fetches), "count"),
        m("crypto.aes_line_ns", micro.aes_line_ns, "ns"),
        m("crypto.mac_ns", micro.mac_ns, "ns"),
        m("crypto.merkle_update_ns", micro.merkle_update_ns, "ns"),
        m("nvm.line_reads", count(|m| m.nvm.line_reads), "count"),
        m("nvm.line_writes", count(|m| m.nvm.line_writes), "count"),
        m("nvm.row_hit_rate", rate(|m| m.nvm.row_hits, |m| m.nvm.row_misses), "fraction"),
        m("nvm.merged_writes", count(|m| m.nvm.merged_writes), "count"),
        m("nvm.line_write_ns", micro.nvm_write_ns, "ns"),
        m("trace.decode_s", tot.decode_s, "s"),
        m("trace.bytes_per_op", ratio(tot.trace_bytes, tot.replay_ops), "B/op"),
        m("trace.span_overhead_s", tot.replay_wall_s - tot.untimed_replay_s, "s"),
        m("workloads.gen_s", tot.live_s - tot.replay_wall_s + tot.decode_s, "s"),
        m("obs.ledger.overhead_x", over(0), "x"),
        m("obs.tail.overhead_x", over(1), "x"),
        m("obs.heatmap.overhead_x", over(2), "x"),
    ];
    for (name, s) in est {
        v.push(m(name, s, "s"));
    }
    for cat in CycleCategory::ALL {
        v.push(Metric::new(format!("cyc.{}", cat.name()), tot.ledger.get(cat) as f64, "cycles"));
    }
    v
}

/// The human-readable split: where the replay's wall time went, and
/// how much of `run_batch` the per-event estimates explain.
fn print_split(tot: &Totals, tracer: &Tracer, micro: &Costs) {
    let unaccounted = tot.replay_wall_s - tot.decode_s - tot.calls_s;
    println!(
        "replay wall {:.4} s = calls {:.4} s + decode {:.4} s + sim.replay.unaccounted_s {unaccounted:.4} s",
        tot.replay_wall_s, tot.calls_s, tot.decode_s
    );
    println!("  {:<20} {:>8} {:>12} {:>7}", "call", "count", "busy_s", "share");
    for call in Call::ALL {
        let n = tracer.spans.iter().filter(|s| s.call == call).count();
        if n == 0 {
            continue;
        }
        let b = busy_s(tracer, call);
        if call == Call::Snapshot {
            // Timed around the live storm run, not part of the replay.
            println!("  {:<20} {n:>8} {b:>12.6} {:>7}", call.name(), "-");
        } else {
            let share = 100.0 * b / tot.replay_wall_s.max(1e-12);
            println!("  {:<20} {n:>8} {b:>12.6} {share:>6.1}%", call.name());
        }
    }
    let run_batch_s = busy_s(tracer, Call::RunBatch);
    println!("estimates (per-event host cost x exact count; estimates, not measurements):");
    let mut est_sum = 0.0;
    for (name, s) in estimates(tot, micro) {
        est_sum += s;
        println!("  {name:<16} {s:>10.6} s");
    }
    println!(
        "  they cover {:.1}% of sim.run_batch.busy_s ({run_batch_s:.6} s); the residual \
         {:.6} s is TLB and run-cache translation, fault service and controller bookkeeping",
        100.0 * est_sum / run_batch_s.max(1e-12),
        run_batch_s - est_sum
    );
    println!(
        "tracing overhead: timed replay {:.4} s, untimed replay {:.4} s; live untraced cells {:.4} s",
        tot.replay_wall_s, tot.untimed_replay_s, tot.live_s
    );
}
