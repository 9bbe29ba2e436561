//! The benchmark's workloads, the cells they run, and the per-cell
//! correctness digest.
//!
//! A cell is one application under one CoW scheme at one page size,
//! run on a fresh `System` (the fork storm restores a post-setup
//! snapshot instead). Cells run one after another on one thread.

use lelantus_os::CowStrategy;
use lelantus_sim::{SimConfig, SimMetrics, System};
use lelantus_types::PageSize;
use lelantus_workloads::bootwl::Boot;
use lelantus_workloads::compilewl::Compile;
use lelantus_workloads::forkbench::Forkbench;
use lelantus_workloads::mariadbwl::Mariadb;
use lelantus_workloads::rediswl::Redis;
use lelantus_workloads::shellwl::Shell;
use lelantus_workloads::stormwl::Storm;
use lelantus_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt;

/// An application a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Boot,
    Compile,
    Forkbench,
    Redis,
    Mariadb,
    Shell,
    /// Forkbench and MariaDB at a quarter of the benchmark scale: the
    /// `observed` cells, where the armed cycle ledger makes every
    /// simulated operation about 25 times dearer.
    ForkbenchQuarter,
    MariadbQuarter,
    Storm,
}

/// The six paper applications, in Fig 9's order.
pub const PAPER_APPS: [App; 6] =
    [App::Boot, App::Compile, App::Forkbench, App::Redis, App::Mariadb, App::Shell];

impl App {
    pub fn name(self) -> &'static str {
        match self {
            App::Boot => "boot",
            App::Compile => "compile",
            App::Forkbench => "forkbench",
            App::Redis => "redis",
            App::Mariadb => "mariadb",
            App::Shell => "shell",
            App::ForkbenchQuarter => "forkbench-quarter",
            App::MariadbQuarter => "mariadb-quarter",
            App::Storm => "storm",
        }
    }

    /// The application at benchmark scale with its RNG driven by the
    /// benchmark seed. Seed 0 keeps every generator's own default
    /// seed; forkbench and the storm use no RNG.
    pub fn workload(self, seed: u64) -> Box<dyn Workload> {
        let mix = |default: u64| default ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match self {
            App::Boot => {
                let w = Boot::small();
                Box::new(Boot { seed: mix(w.seed), ..w })
            }
            App::Compile => {
                let w = Compile::small();
                Box::new(Compile { seed: mix(w.seed), ..w })
            }
            App::Forkbench => Box::new(Forkbench { total_bytes: 2 << 20, bytes_per_page: None }),
            App::Redis => {
                let w = Redis::small();
                Box::new(Redis { seed: mix(w.seed), ..w })
            }
            App::Mariadb => {
                let w = Mariadb::small();
                Box::new(Mariadb { seed: mix(w.seed), ..w })
            }
            App::Shell => {
                let w = Shell::small();
                Box::new(Shell { seed: mix(w.seed), ..w })
            }
            App::ForkbenchQuarter => {
                Box::new(Forkbench { total_bytes: 512 << 10, bytes_per_page: None })
            }
            App::MariadbQuarter => {
                let w = Mariadb::small();
                Box::new(Mariadb {
                    buffer_pool_bytes: w.buffer_pool_bytes / 4,
                    index_bytes: w.index_bytes / 4,
                    log_bytes: w.log_bytes / 4,
                    rows: w.rows / 4,
                    seed: mix(w.seed),
                })
            }
            App::Storm => Box::new(storm()),
        }
    }
}

/// The storm's scale: between `Storm::small()` (8 tenants) and
/// `Storm::full()` (1024 tenants), with full-size regions but deep
/// chains that dirty few pages per generation, so that fork, exit and
/// the page registry, not the copy path, do the work.
pub fn storm() -> Storm {
    Storm { tenants: 16, fork_depth: 16, touched_pages_per_child: 2, ..Storm::full() }
}

/// Short lowercase scheme name used in cell ids.
fn scheme_name(s: CowStrategy) -> &'static str {
    match s {
        CowStrategy::Baseline => "baseline",
        CowStrategy::SilentShredder => "silent-shredder",
        CowStrategy::Lelantus => "lelantus",
        CowStrategy::LelantusCow => "lelantus-cow",
    }
}

fn page_name(p: PageSize) -> &'static str {
    match p {
        PageSize::Regular4K => "4k",
        PageSize::Huge2M => "2m",
    }
}

/// Which observability planes a cell arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Planes {
    pub ledger: bool,
    pub tail: bool,
    pub heat: bool,
}

impl Planes {
    pub const OFF: Planes = Planes { ledger: false, tail: false, heat: false };
    pub const ALL: Planes = Planes { ledger: true, tail: true, heat: true };
}

/// One application under one scheme at one page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub app: App,
    pub strategy: CowStrategy,
    pub page: PageSize,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.app.name(), scheme_name(self.strategy), page_name(self.page))
    }
}

impl Cell {
    /// The cell's simulator configuration with `planes` armed.
    pub fn config(&self, planes: Planes) -> SimConfig {
        let mut cfg = SimConfig::new(self.strategy, self.page);
        if self.app == App::Storm {
            cfg = cfg.with_phys_bytes(storm().phys_bytes());
        }
        if planes.ledger {
            cfg = cfg.with_cycle_ledger();
        }
        if planes.tail {
            cfg = cfg.with_tail_recorder();
        }
        if planes.heat {
            cfg = cfg.with_heatmap();
        }
        cfg
    }

    /// The simulated work of the cell's timed phase: the whole run,
    /// except for the storm, whose set-up is restored from a snapshot
    /// rather than re-run, so only its measured phase counts.
    pub fn work(&self, o: &Outcome) -> SimMetrics {
        if self.app == App::Storm {
            o.measured
        } else {
            o.metrics
        }
    }

    /// Runs the whole application (setup and measured phase) on `sys`,
    /// then reads the final Merkle root and metrics.
    pub fn run(&self, sys: &mut System, seed: u64) -> Result<Outcome, String> {
        let run = self.app.workload(seed).run(sys).map_err(|e| format!("{self}: {e}"))?;
        Ok(Outcome::read(sys, run.measured))
    }

    /// Runs the cell on a fresh system with `planes` armed, then reads
    /// the armed planes' results (tail summary, merged heat grid) as
    /// `lelantus report --tail --heatmap` does. Returns the system too,
    /// for its cycle ledger.
    pub fn run_armed(&self, planes: Planes, seed: u64) -> Result<(Outcome, System), String> {
        let mut sys = System::new(self.config(planes));
        let outcome = self.run(&mut sys, seed)?;
        if planes.tail {
            std::hint::black_box(sys.tail_recorder().map(|t| t.summary()));
        }
        if planes.heat {
            std::hint::black_box(sys.heatmap().map(|g| g.top_regions(8)));
        }
        Ok((outcome, sys))
    }
}

/// The four named workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    Fig9_4k,
    Fig9_2m,
    Storm,
    Observed,
}

impl Bench {
    pub const ALL: [Bench; 4] = [Bench::Fig9_4k, Bench::Fig9_2m, Bench::Storm, Bench::Observed];

    pub fn name(self) -> &'static str {
        match self {
            Bench::Fig9_4k => "fig9-4k",
            Bench::Fig9_2m => "fig9-2m",
            Bench::Storm => "storm",
            Bench::Observed => "observed",
        }
    }

    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The cells one iteration runs, in order.
    pub fn cells(self) -> Vec<Cell> {
        let matrix = |apps: &[App], schemes: &[CowStrategy], page| {
            let mut cells = Vec::new();
            for &app in apps {
                for &strategy in schemes {
                    cells.push(Cell { app, strategy, page });
                }
            }
            cells
        };
        let pair = [CowStrategy::Baseline, CowStrategy::Lelantus];
        match self {
            Bench::Fig9_4k => matrix(&PAPER_APPS, &CowStrategy::all(), PageSize::Regular4K),
            Bench::Fig9_2m => matrix(&PAPER_APPS, &CowStrategy::all(), PageSize::Huge2M),
            Bench::Storm => matrix(&[App::Storm], &CowStrategy::all(), PageSize::Regular4K),
            Bench::Observed => {
                matrix(&[App::ForkbenchQuarter, App::MariadbQuarter], &pair, PageSize::Regular4K)
            }
        }
    }

    /// The planes a timed iteration arms: all three on `observed`
    /// (as `lelantus profile` and `report --tail --heatmap` arm them),
    /// none elsewhere.
    pub fn planes(self) -> Planes {
        if self == Bench::Observed {
            Planes::ALL
        } else {
            Planes::OFF
        }
    }
}

/// What a finished cell left behind.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whole-run metrics at the end of the cell.
    pub metrics: SimMetrics,
    /// Metrics of the application's measured phase (Fig 9's numbers).
    pub measured: SimMetrics,
    /// The final Merkle root.
    pub root: u64,
}

impl Outcome {
    /// Reads the root (which flushes deferred Merkle maintenance) and
    /// then the metrics, in the order a recorded trace replays them.
    pub fn read(sys: &mut System, measured: SimMetrics) -> Outcome {
        let root = sys.merkle_root();
        Outcome { metrics: sys.metrics(), measured, root }
    }

    pub fn digest(&self) -> Digest {
        Digest { metrics: fnv1a(format!("{:?}", self.metrics).as_bytes()), root: self.root }
    }
}

/// A cell's fingerprint: a hash over every `SimMetrics` field plus the
/// final Merkle root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub metrics: u64,
    pub root: u64,
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Digests taken at seed 0, keyed by cell id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DigestTable(BTreeMap<String, Digest>);

impl DigestTable {
    /// Parses `cell metrics_hash merkle_root` lines (hex, `#` comments).
    pub fn parse(text: &str) -> Result<DigestTable, String> {
        let mut table = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let hex = |s: &str| u64::from_str_radix(s, 16).ok();
            match fields[..] {
                [id, m, r] => match (hex(m), hex(r)) {
                    (Some(metrics), Some(root)) => {
                        table.insert(id.to_string(), Digest { metrics, root });
                    }
                    _ => return Err(format!("digest line {}: bad hex", i + 1)),
                },
                _ => return Err(format!("digest line {}: expected 3 fields", i + 1)),
            }
        }
        Ok(DigestTable(table))
    }

    pub fn insert(&mut self, id: String, d: Digest) {
        self.0.insert(id, d);
    }

    pub fn render(&self) -> String {
        let mut s = String::from(
            "# Per-cell digests at seed 0: cell, FNV-1a of the final SimMetrics' Debug form,\n\
             # final Merkle root. Regenerate with `--write-digests perfbench/digests.txt`.\n",
        );
        for (id, d) in &self.0 {
            s.push_str(&format!("{id} {:016x} {:016x}\n", d.metrics, d.root));
        }
        s
    }

    /// Checks `got` against the recorded digest for `id`.
    pub fn check(&self, id: &str, got: Digest) -> Result<(), String> {
        let Some(want) = self.0.get(id) else {
            return Err(format!("{id}: no recorded digest"));
        };
        if want.metrics != got.metrics {
            return Err(format!(
                "{id}: SimMetrics digest {:016x}, recorded {:016x}",
                got.metrics, want.metrics
            ));
        }
        if want.root != got.root {
            return Err(format!(
                "{id}: Merkle root {:016x}, recorded {:016x}",
                got.root, want.root
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_outcome() -> Outcome {
        let cell = Cell {
            app: App::Forkbench,
            strategy: CowStrategy::Lelantus,
            page: PageSize::Regular4K,
        };
        let mut sys = System::new(cell.config(Planes::OFF));
        let run = Forkbench::small().run(&mut sys).unwrap();
        Outcome::read(&mut sys, run.measured)
    }

    #[test]
    fn digest_table_round_trips_and_catches_changes() {
        let o = small_outcome();
        let mut table = DigestTable::default();
        table.insert("forkbench/lelantus/4k".into(), o.digest());
        let parsed = DigestTable::parse(&table.render()).unwrap();
        assert_eq!(parsed, table);
        assert!(parsed.check("forkbench/lelantus/4k", o.digest()).is_ok());
        assert!(parsed.check("forkbench/baseline/4k", o.digest()).is_err(), "unknown cell");

        // One simulated NVM write more must change the digest.
        let mut tampered = o.clone();
        tampered.metrics.nvm.line_writes += 1;
        let err = parsed.check("forkbench/lelantus/4k", tampered.digest()).unwrap_err();
        assert!(err.contains("SimMetrics"), "{err}");

        // So must a different root.
        let mut rerooted = o.clone();
        rerooted.root ^= 1;
        let err = parsed.check("forkbench/lelantus/4k", rerooted.digest()).unwrap_err();
        assert!(err.contains("Merkle root"), "{err}");

        // A digest edited in the file is caught too.
        let edited = table.render().replacen(
            &format!("{:016x}", o.root),
            &format!("{:016x}", o.root ^ 2),
            1,
        );
        let edited = DigestTable::parse(&edited).unwrap();
        assert!(edited.check("forkbench/lelantus/4k", o.digest()).is_err());
    }

    #[test]
    fn malformed_digest_lines_are_rejected() {
        assert!(DigestTable::parse("a b").is_err());
        assert!(DigestTable::parse("a zz 00").is_err());
        assert!(DigestTable::parse("# only a comment\n\n").unwrap().0.is_empty());
    }
}
