//! A fixed probe of the host's speed, timed next to every cell.
//!
//! On a shared host, other tenants slow this memory-bound simulator by
//! up to 2x, in phases that last from seconds to minutes: cores and
//! caches are shared below the VM. No order statistic of a run's raw
//! times is steady across such phases (a median tracks how much of the
//! run fell in them). The probe, random read-modify-writes over a
//! 16 MiB buffer, slows with the simulator, so each cell's time is
//! scaled by the probe's reference time over the probe times measured just
//! before and after the cell. The probe is the benchmark's own code; no
//! change to the simulator moves it.
//!
//! On the build host, in an hour when raw iteration times swung by up
//! to 2x, ten 25 s runs per workload spread (quartile distance over
//! median) by 0.49 (`fig9-4k`), 0.44 (`fig9-2m`), 0.38 (`storm`) and
//! 0.41 (`observed`) raw, and by 0.14, 0.16, 0.03 and 0.13 scaled. The
//! rest is the part of the slowdown the probe does not share.

use std::time::Instant;

/// The probe's buffer: 16 MiB, larger than a core's L2 and well inside
/// the shared L3 of the host the benchmark was built on.
const WORDS: usize = 1 << 21;
pub const BUFFER_MB: f64 = (WORDS * 8) as f64 / (1024.0 * 1024.0);

/// Random read-modify-write steps per probe.
const STEPS: usize = 100_000;

/// The probe time scaled times are referred to: on the build host
/// (2-core Intel Xeon VM), the lower decile of about 1500 probes
/// interleaved with `fig9-4k` cells. Scaled times are host seconds at
/// the speed where a probe takes this long.
pub const REF_S: f64 = 1.6e-3;

pub struct Probe {
    buf: Vec<u64>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe { buf: vec![1; WORDS] }
    }

    /// Host seconds of one probe.
    pub fn time(&mut self) -> f64 {
        let mask = WORDS - 1;
        let t = Instant::now();
        let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15_u64, 0u64);
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            self.buf[i] = self.buf[i].wrapping_add(acc);
            acc = acc.wrapping_add(self.buf[i.wrapping_mul(7) & mask]);
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

/// `seconds` measured between probes that took `before` and `after`,
/// scaled to the probe's reference speed.
pub fn scaled(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * REF_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_mean_of_the_bracketing_probes() {
        // Probes at the reference speed leave a time as it is.
        assert_eq!(scaled(0.5, REF_S, REF_S), 0.5);
        // A host that makes the probe twice as slow around the cell
        // halves it.
        let got = scaled(1.0, REF_S, 3.0 * REF_S);
        assert!((got - 0.5).abs() < 1e-12, "{got}");
    }

    #[test]
    fn a_probe_takes_time() {
        let mut p = Probe::new();
        assert!(p.time() > 0.0);
    }
}
