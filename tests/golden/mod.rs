//! The golden matrix: a fixed set of simulations whose observable
//! results are pinned in `tests/golden/outputs.txt`.
//!
//! Every cell records the FNV-1a hash of the final `SimMetrics` Debug
//! form, the FNV-1a hash of the whole `RingProbe` event stream (the
//! ring never wraps: a cell that outgrows it fails), the exact per-kind
//! event totals and the Merkle root over the final NVM image. Workload
//! cells also hash the `WorkloadRun` their measured phase returned; the
//! `fastpath` cells fingerprint the raw ciphertext of every frame their
//! two processes map.
//!
//! The file was generated while the reference twins of the AES engine,
//! the counter codec, Merkle maintenance, MAC combining and the access
//! driver were still selectable at run time, and those twins were
//! proven bit-identical to the fast paths on these cells, so each line
//! is also the reference twin's output for its cell.
//!
//! Shared by `tests/golden_outputs.rs` (the whole matrix) and the
//! fast-path suites (the rows of the configurations they cover).

// Each test crate that includes this module uses a subset of it.
#![allow(dead_code)]

use lelantus::os::{CowStrategy, ProcessId};
use lelantus::sim::{EventKind, RingProbe, SimConfig, System};
use lelantus::types::{PageSize, PhysAddr, VirtAddr, LINE_BYTES};
use lelantus::workloads::{
    bootwl::Boot, compilewl::Compile, forkbench::Forkbench, mariadbwl::Mariadb, rediswl::Redis,
    shellwl::Shell, Workload, WorkloadRun,
};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Capacity of every cell's event ring: above the largest cell's event
/// count, so every event is hashed.
pub const RING: usize = 1 << 20;

/// FNV-1a (64-bit) over a byte stream.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.feed(bytes);
        h.0
    }
}

/// Renders one cell's line of the golden file; `extra` adds named
/// hashes after the root.
fn render(name: &str, sys: &mut System<RingProbe>, extra: Option<(&str, u64)>) -> String {
    let metrics = format!("{:?}", sys.finish());
    let root = sys.merkle_root();
    let probe = sys.probe().clone();
    assert_eq!(probe.dropped(), 0, "{name}: the event ring wrapped");
    let mut events = Fnv::new();
    for e in probe.events() {
        events.feed(format!("{e:?}\n").as_bytes());
    }
    let counts = probe.counts();
    let mut line = format!(
        "{name} metrics={:016x} events={:016x} root={root:016x}",
        Fnv::of(metrics.as_bytes()),
        events.0
    );
    if let Some((key, hash)) = extra {
        let _ = write!(line, " {key}={hash:016x}");
    }
    line.push_str(" counts=");
    for (i, c) in counts.iter().enumerate() {
        if *c > 0 {
            let _ = write!(line, "{}:{c},", EventKind::name_of(i));
        }
    }
    line.pop();
    line
}

fn strategy_tag(strategy: CowStrategy) -> &'static str {
    match strategy {
        CowStrategy::Baseline => "baseline",
        CowStrategy::SilentShredder => "shredder",
        CowStrategy::Lelantus => "lelantus",
        CowStrategy::LelantusCow => "lelantus-cow",
    }
}

fn page_tag(page: PageSize) -> &'static str {
    match page {
        PageSize::Regular4K => "4k",
        PageSize::Huge2M => "2m",
    }
}

/// Runs `drive` on a fresh system, renders the cell
/// `group/name/scheme/page/mem` (with the hash of the `WorkloadRun`
/// that `drive` returns, if any) and returns the line together with
/// the system, finished, for further inspection.
pub fn run_cell(
    group: &str,
    name: &str,
    strategy: CowStrategy,
    page: PageSize,
    phys: Option<u64>,
    drive: impl FnOnce(&mut System<RingProbe>) -> Option<WorkloadRun>,
) -> (String, System<RingProbe>) {
    let mut config = SimConfig::new(strategy, page);
    let mem = match phys {
        Some(bytes) => {
            config = config.with_phys_bytes(bytes);
            format!("{}m", bytes >> 20)
        }
        None => "default".to_string(),
    };
    let mut sys = System::with_probe(config, RingProbe::new(RING));
    let run = drive(&mut sys).map(|run| ("measured", Fnv::of(format!("{run:?}").as_bytes())));
    let name = format!("{group}/{name}/{}/{}/{mem}", strategy_tag(strategy), page_tag(page));
    let line = render(&name, &mut sys, run);
    (line, sys)
}

/// [`run_cell`] driven by the workload `wl`.
pub fn run_workload_cell(
    group: &str,
    wl: &dyn Workload<RingProbe>,
    strategy: CowStrategy,
    page: PageSize,
    phys: Option<u64>,
) -> (String, System<RingProbe>) {
    run_cell(group, wl.name(), strategy, page, phys, |sys| {
        Some(wl.run(sys).unwrap_or_else(|e| panic!("{} under {strategy}: {e}", wl.name())))
    })
}

fn workload_cell(
    group: &str,
    wl: &dyn Workload<RingProbe>,
    strategy: CowStrategy,
    page: PageSize,
    phys: Option<u64>,
) -> String {
    run_workload_cell(group, wl, strategy, page, phys).0
}

/// The deterministic fork/write/read scenario of the AES-backend
/// equivalence check: a parent and a child sharing `SCENARIO_BYTES`
/// at the returned address, with writes on both sides of the fork.
pub struct Scenario {
    pub sys: System<RingProbe>,
    pub pids: [ProcessId; 2],
    pub va: VirtAddr,
}

/// Length of the scenario's shared mapping.
pub const SCENARIO_BYTES: u64 = 4096 * 8;

/// Runs the fork/write/read scenario under `strategy` on 4 KB pages.
pub fn fastpath_scenario(strategy: CowStrategy) -> Scenario {
    let mut sys =
        System::with_probe(SimConfig::new(strategy, PageSize::Regular4K), RingProbe::new(RING));
    let pid = sys.spawn_init();
    let len = SCENARIO_BYTES;
    let va = sys.mmap(pid, len).unwrap();
    sys.write_pattern(pid, va, len as usize, 0x3C).unwrap();
    let child = sys.fork(pid).unwrap();
    sys.write_bytes(pid, va + 64, b"parent-after-fork").unwrap();
    sys.write_bytes(child, va + 4096 + 128, b"child-after-fork").unwrap();
    sys.write_bytes(child, va + 4096 * 5, &[0xA5; 256]).unwrap();
    let parent_view = sys.read_bytes(pid, va, 4096).unwrap();
    let child_view = sys.read_bytes(child, va, 4096).unwrap();
    assert_ne!(parent_view[64..81], child_view[64..81]);
    sys.finish();
    Scenario { sys, pids: [pid, child], va }
}

/// Renders the scenario's cell, including the raw-NVM fingerprint.
pub fn render_fastpath(strategy: CowStrategy, s: &mut Scenario) -> String {
    // The stored ciphertext of every frame either process maps: equal
    // fingerprints mean equal on-device bytes, not merely equal
    // decrypted views.
    let mut nvm = Fnv::new();
    for p in s.pids {
        for page in 0..SCENARIO_BYTES / 4096 {
            let frame = s.sys.kernel().translate(p, s.va + page * 4096).expect("page is mapped");
            for line in 0..4096 / LINE_BYTES as u64 {
                let addr = PhysAddr::new(frame.as_u64() + line * LINE_BYTES as u64);
                nvm.feed(&s.sys.controller().peek_raw_line(addr));
            }
        }
    }
    render(
        &format!("fastpath/scenario/{}/4k/default", strategy_tag(strategy)),
        &mut s.sys,
        Some(("nvm", nvm.0)),
    )
}

fn fastpath_cell(strategy: CowStrategy) -> String {
    render_fastpath(strategy, &mut fastpath_scenario(strategy))
}

/// Every cell of the golden matrix, in file order.
pub fn matrix() -> Vec<String> {
    let mut lines = Vec::new();
    // The AES-backend scenario under every scheme.
    for strategy in CowStrategy::all() {
        lines.push(fastpath_cell(strategy));
    }
    // The metadata-path workloads (the paper's two most copy-intensive
    // signatures) under every scheme on the default 256 MB arena.
    for strategy in CowStrategy::all() {
        lines.push(workload_cell(
            "metadata",
            &Forkbench::small(),
            strategy,
            PageSize::Regular4K,
            None,
        ));
        lines.push(workload_cell("metadata", &Redis::small(), strategy, PageSize::Regular4K, None));
    }
    // The access-driver cells: huge-page forkbench on a 4 MB heap.
    lines.push(workload_cell(
        "access",
        &huge_forkbench(),
        CowStrategy::Lelantus,
        PageSize::Huge2M,
        Some(64 << 20),
    ));
    // The six small paper workloads under every scheme at 4K on 64 MB;
    // forkbench and redis here also cover the access-driver cells.
    let suite: [&dyn Workload<RingProbe>; 6] = [
        &Boot::small(),
        &Compile::small(),
        &Forkbench::small(),
        &Redis::small(),
        &Mariadb::small(),
        &Shell::small(),
    ];
    for wl in suite {
        for strategy in CowStrategy::all() {
            lines.push(workload_cell("suite", wl, strategy, PageSize::Regular4K, Some(64 << 20)));
        }
    }
    lines
}

/// The huge-page forkbench of the access-driver cell: two 2 MB pages.
pub fn huge_forkbench() -> Forkbench {
    Forkbench { total_bytes: 4 << 20, bytes_per_page: None }
}

pub fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/outputs.txt")
}

/// The committed golden file.
pub fn committed() -> String {
    std::fs::read_to_string(golden_path()).expect("golden file is committed")
}

/// Renders the whole golden file from the current build.
pub fn render_file() -> String {
    let mut out = String::new();
    for line in matrix() {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Asserts that `line` equals the committed line of the same cell.
pub fn assert_committed(line: &str) {
    let name = line.split(' ').next().expect("cell line starts with its name");
    let file = committed();
    let want = file
        .lines()
        .find(|l| l.split(' ').next() == Some(name))
        .unwrap_or_else(|| panic!("cell {name} is not in the golden file"));
    assert_eq!(line, want, "cell {name} diverged from the golden file");
}
