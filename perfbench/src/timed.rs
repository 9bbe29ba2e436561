//! The timed mode: end-to-end metrics from untraced iterations.

use crate::cells::{App, Bench, Cell, DigestTable, Outcome, Planes};
use crate::probe::{self, Probe};
use crate::stats;
use crate::{Metric, Report};
use lelantus_os::CowStrategy;
use lelantus_sim::{SimMetrics, Snapshot, System};
use lelantus_workloads::stormwl::StormState;
use std::time::Instant;

/// The end-to-end metrics as `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("sim_ops_per_s", "ops/s"),
    ("wall_s", "s"),
    ("kernel_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_speedup", "x"),
    ("nvm_write_frac", "fraction"),
];

/// Set-up repeats per run: at least the first number, and more, up to
/// the second, while the repeats so far took under [`SETUP_BUDGET_S`]
/// host seconds. `setup_s` is the median of their scaled times.
const SETUP_REPS: (usize, usize) = (3, 9);
const SETUP_BUDGET_S: f64 = 1.0;

/// Times work between probes of the host's speed.
struct Clock {
    probe: Probe,
    /// Host seconds of the latest probe.
    last: f64,
}

/// Host seconds of a piece of work: as measured, and scaled to the
/// probe's reference speed.
#[derive(Debug, Clone, Copy)]
struct Timing {
    raw: f64,
    scaled: f64,
}

impl Clock {
    fn new() -> Clock {
        let mut probe = Probe::new();
        let last = probe.time();
        Clock { probe, last }
    }

    /// Runs `work`, timed from `start`, then probes the host again.
    fn time_from<T>(&mut self, start: Instant, work: impl FnOnce() -> T) -> (T, Timing) {
        let out = work();
        let raw = start.elapsed().as_secs_f64();
        let after = self.probe.time();
        let scaled = probe::scaled(raw, self.last, after);
        self.last = after;
        (out, Timing { raw, scaled })
    }

    fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Timing) {
        self.time_from(Instant::now(), work)
    }
}

/// A storm cell after `Storm::setup`: each iteration forks a fresh
/// system from the post-setup snapshot and runs only the storm phase.
/// Only the snapshot is kept between iterations, to bound memory.
pub struct StormCell {
    snap: Snapshot,
    state: StormState,
}

impl StormCell {
    pub fn prepare(cell: &Cell) -> Result<StormCell, String> {
        let mut sys = System::new(cell.config(Planes::OFF));
        let state = crate::cells::storm().setup(&mut sys).map_err(|e| format!("{cell}: {e}"))?;
        Ok(StormCell { snap: sys.snapshot(), state })
    }

    pub fn iterate(&self, cell: &Cell) -> Result<Outcome, String> {
        let mut sys = self.snap.fork();
        let run = crate::cells::storm()
            .measure(&mut sys, &self.state)
            .map_err(|e| format!("{cell}: {e}"))?;
        Ok(Outcome::read(&mut sys, run.measured))
    }
}

/// A finished cell of one iteration: its outcome and, when the ledger
/// is armed, the ledger's total.
struct Done {
    outcome: Outcome,
    ledger_total: Option<u64>,
}

fn run_fresh(cell: &Cell, planes: Planes, seed: u64) -> Result<Done, String> {
    let (outcome, sys) = cell.run_armed(planes, seed)?;
    Ok(Done { outcome, ledger_total: planes.ledger.then(|| sys.cycle_ledger().total()) })
}

/// Everything set-up builds.
struct Prepared {
    cells: Vec<Cell>,
    /// Post-setup storm systems, one per cell (storm only).
    storms: Vec<StormCell>,
    /// Planes-off outcomes the armed cells must reproduce (observed only).
    reference: Vec<Outcome>,
}

fn prepare(bench: Bench, seed: u64) -> Result<Prepared, String> {
    let cells = bench.cells();
    let mut storms = Vec::new();
    let mut reference = Vec::new();
    match bench {
        Bench::Storm => {
            for cell in &cells {
                storms.push(StormCell::prepare(cell)?);
            }
        }
        Bench::Observed => {
            for cell in &cells {
                reference.push(run_fresh(cell, Planes::OFF, seed)?.outcome);
            }
        }
        Bench::Fig9_4k | Bench::Fig9_2m => {
            // Warm-up: one small cell, so allocator and code paths are
            // live before the first timed iteration.
            let warm = Cell { app: App::Redis, ..cells[0] };
            run_fresh(&warm, Planes::OFF, seed)?;
        }
    }
    Ok(Prepared { cells, storms, reference })
}

/// Runs every cell once; each result comes with the cell's timing.
fn iterate(
    bench: Bench,
    prep: &Prepared,
    seed: u64,
    clock: &mut Clock,
) -> Vec<(Result<Done, String>, Timing)> {
    let planes = bench.planes();
    if bench == Bench::Storm {
        prep.storms
            .iter()
            .zip(&prep.cells)
            .map(|(s, cell)| {
                clock.time(|| s.iterate(cell).map(|outcome| Done { outcome, ledger_total: None }))
            })
            .collect()
    } else {
        prep.cells.iter().map(|cell| clock.time(|| run_fresh(cell, planes, seed))).collect()
    }
}

/// Scaled host seconds of the median iteration: the sum over cells of
/// each cell's median scaled time.
pub fn median_iteration(cell_scaled: &[Vec<f64>]) -> f64 {
    cell_scaled.iter().map(|w| stats::median(w).expect("every cell ran")).sum()
}

pub fn line_accesses(m: &SimMetrics) -> u64 {
    m.caches.l1.hits + m.caches.l1.misses
}

pub fn kernel_ops(m: &SimMetrics) -> u64 {
    m.kernel.forks + m.kernel.cow_faults + m.kernel.reuse_faults + m.kernel.pages_freed
}

/// Fig 9's y-axis: geometric mean over apps of Baseline cycles over
/// Lelantus cycles (measured phases), and the Lelantus/Baseline NVM
/// line-write fraction summed over cells.
pub fn paper_ratios(cells: &[Cell], outcomes: &[Outcome]) -> Option<(f64, f64)> {
    let find = |app: App, s: CowStrategy| {
        cells.iter().position(|c| c.app == app && c.strategy == s).map(|i| &outcomes[i].measured)
    };
    let mut speedups = Vec::new();
    let (mut base_w, mut lel_w) = (0u64, 0u64);
    let mut apps: Vec<App> = cells.iter().map(|c| c.app).collect();
    apps.dedup();
    for app in apps {
        let (Some(b), Some(l)) =
            (find(app, CowStrategy::Baseline), find(app, CowStrategy::Lelantus))
        else {
            continue;
        };
        speedups.push(stats::ratio(b.cycles.as_u64(), l.cycles.as_u64()));
        base_w += b.nvm.line_writes;
        lel_w += l.nvm.line_writes;
    }
    Some((stats::geomean(&speedups)?, stats::ratio(lel_w, base_w)))
}

pub fn run(
    bench: Bench,
    seed: u64,
    seconds: f64,
    started: Instant,
    digests: Option<&DigestTable>,
) -> Result<Report, String> {
    let mut clock = Clock::new();
    let mut setups: Vec<Timing> = Vec::new();
    let mut prep = None;
    let (min_reps, max_reps) = SETUP_REPS;
    while setups.len() < min_reps
        || (setups.len() < max_reps && setups.iter().map(|t| t.raw).sum::<f64>() < SETUP_BUDGET_S)
    {
        // The first set-up counts from process start.
        let start = if setups.is_empty() { started } else { Instant::now() };
        drop(prep.take()); // free the previous storm snapshots first
        let (p, timing) = clock.time_from(start, || prepare(bench, seed));
        prep = Some(p?);
        setups.push(timing);
    }
    let prep = prep.expect("at least one set-up ran");

    let n_cells = prep.cells.len();
    // Raw host seconds of every iteration; scaled seconds of every cell
    // in each.
    let mut walls = Vec::new();
    let mut cell_scaled: Vec<Vec<f64>> = vec![Vec::new(); n_cells];
    let mut previous: Vec<Option<Outcome>> = vec![None; n_cells];
    let mut first: Option<Vec<Outcome>> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let measuring = Instant::now();
    while walls.is_empty() || measuring.elapsed().as_secs_f64() < seconds {
        let done = iterate(bench, &prep, seed, &mut clock);
        walls.push(done.iter().map(|(_, t)| t.raw).sum::<f64>());
        let mut outcomes = Vec::with_capacity(n_cells);
        for (i, (d, timing)) in done.into_iter().enumerate() {
            attempted += 1;
            cell_scaled[i].push(timing.scaled);
            let id = prep.cells[i].to_string();
            let verdict = d.and_then(|d| {
                let o = &d.outcome;
                if let Some(table) = digests {
                    table.check(&id, o.digest())?;
                }
                if let Some(prev) = &previous[i] {
                    if prev != o {
                        return Err(format!("{id}: differs from the previous iteration"));
                    }
                }
                if let Some(r) = prep.reference.get(i) {
                    if r != o {
                        return Err(format!("{id}: armed run differs from the planes-off run"));
                    }
                }
                if let Some(total) = d.ledger_total {
                    if total != o.metrics.cycles.as_u64() {
                        return Err(format!(
                            "{id}: ledger sums to {total}, total cycles {}",
                            o.metrics.cycles.as_u64()
                        ));
                    }
                }
                Ok(d.outcome)
            });
            match verdict {
                Ok(o) => {
                    previous[i] = Some(o.clone());
                    outcomes.push(o);
                }
                Err(e) => {
                    failed += 1;
                    errors.push(e);
                }
            }
        }
        if first.is_none() && outcomes.len() == n_cells {
            first = Some(outcomes);
        }
    }

    let first = first.ok_or("no iteration completed every cell")?;
    let (speedup, write_frac) =
        paper_ratios(&prep.cells, &first).ok_or("no Baseline and Lelantus pair")?;
    // Every iteration does the same work (each cell is checked against
    // the previous iteration), so the rates divide one iteration's work
    // by `wall_s`.
    let work = |count: fn(&SimMetrics) -> u64| -> u64 {
        prep.cells.iter().zip(&first).map(|(c, o)| count(&c.work(o))).sum()
    };
    let wall = median_iteration(&cell_scaled);
    let med = |xs: &[f64]| stats::median(xs).expect("at least one value");
    let setup_scaled: Vec<f64> = setups.iter().map(|t| t.scaled).collect();
    let values = [
        work(line_accesses) as f64 / wall,
        wall,
        work(kernel_ops) as f64 / wall,
        med(&setup_scaled),
        crate::host::peak_rss_mb().map_or(0.0, |mb| mb - probe::BUFFER_MB),
        speedup,
        write_frac,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect();

    let tail = match stats::tail(&walls) {
        Some((p, v)) => format!("p{p} {v:.6} s"),
        None => "no tail (a percentile needs ten samples beyond it)".into(),
    };
    println!(
        "raw iteration wall: median {:.6} s, {tail}, over {} iterations; scaled to the \
         probe's reference speed: {wall:.6} s",
        med(&walls),
        walls.len()
    );
    let fmt = |xs: &[f64]| xs.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ");
    println!("iterations {} of {n_cells} cells: raw wall {}", walls.len(), fmt(&walls));
    let setup_raw: Vec<f64> = setups.iter().map(|t| t.raw).collect();
    println!("setup reps: raw {}; scaled {}", fmt(&setup_raw), fmt(&setup_scaled));
    println!("failed_frac {}  ({failed} of {attempted} cells)", stats::ratio(failed, attempted));
    Ok(Report { metrics, attempted, failed, errors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lelantus_types::{Cycles, PageSize};

    fn outcome(cycles: u64, writes: u64) -> Outcome {
        let mut measured = SimMetrics { cycles: Cycles::new(cycles), ..SimMetrics::default() };
        measured.nvm.line_writes = writes;
        Outcome { metrics: measured, measured, root: 0 }
    }

    #[test]
    fn sim_speedup_is_the_geomean_over_apps_of_baseline_over_lelantus() {
        let cell = |app, strategy| Cell { app, strategy, page: PageSize::Regular4K };
        let cells = [
            cell(App::Boot, CowStrategy::Baseline),
            cell(App::Boot, CowStrategy::SilentShredder),
            cell(App::Boot, CowStrategy::Lelantus),
            cell(App::Shell, CowStrategy::Baseline),
            cell(App::Shell, CowStrategy::Lelantus),
        ];
        // Boot: 800/200 = 4x; Shell: 300/300 = 1x; geomean 2x. The
        // Silent Shredder cell counts toward neither ratio.
        let outcomes = [
            outcome(800, 40),
            outcome(1, 1_000),
            outcome(200, 10),
            outcome(300, 60),
            outcome(300, 20),
        ];
        let (speedup, frac) = paper_ratios(&cells, &outcomes).unwrap();
        assert!((speedup - 2.0).abs() < 1e-12, "{speedup}");
        assert!((frac - 30.0 / 100.0).abs() < 1e-12, "{frac}");
    }

    #[test]
    fn wall_s_sums_each_cells_median() {
        // Cell 0's slow sample falls in another iteration than cell 1's;
        // the median over whole iterations (3.0, 11.2, 10.2) takes one
        // of them in.
        let got = median_iteration(&[vec![1.0, 9.0, 1.2], vec![2.0, 2.2, 9.0]]);
        assert!((got - 3.4).abs() < 1e-12, "{got}");
        assert_eq!(median_iteration(&[vec![0.5], vec![0.25]]), 0.75);
    }

    #[test]
    fn sim_speedup_needs_a_baseline_and_lelantus_pair() {
        let cells =
            [Cell { app: App::Boot, strategy: CowStrategy::Baseline, page: PageSize::Huge2M }];
        assert_eq!(paper_ratios(&cells, &[outcome(5, 5)]), None);
    }
}
