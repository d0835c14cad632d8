//! Small numeric helpers: quartiles, percentiles, FNV fingerprints, the
//! peak-RSS counter and the reference kernel the end-to-end metrics read.

use std::time::Instant;

/// Quartiles `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spreads printed here are
/// the spreads an external checker computes from the same values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile `p` in `[0, 1]` (NaN when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    diversifi_simcore::quantile_unsorted(&mut values.to_vec(), p)
}

/// FNV-1a over a stream of words: the output fingerprints that prove two
/// runs (or a traced replica and its untraced run) did the same work.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Fnv {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Fnv {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// Steps of each of the kernel's two passes; a run of both takes about
/// 20 ms on a 2-vCPU Xeon guest.
const REF_STEPS: u32 = 1_000_000;

/// The kernel's passes update words scattered over the first 8 MiB, then
/// over the first 1 MiB of its table: one pass misses the 2 MiB L2 cache,
/// the other stays in it, as the simulator's larger and smaller working
/// sets do.
const REF_SPANS: [usize; 2] = [1 << 20, 1 << 17];

/// The reference speed: a host on which one kernel run takes 20 ms, about
/// what a quiet 2-vCPU Xeon guest takes. `setup_s` is set-up time in
/// seconds of such a host.
pub const REF_NOMINAL_S: f64 = 0.020;

/// A fixed computation that measures how fast the host runs right now.
///
/// The host's speed swings by up to 1.7 times for minutes at a time as
/// other tenants load it, which no run length averages away. The kernel
/// mixes what the workloads do (integer hashing, scattered updates in and
/// beyond the L2 cache, a data-dependent branch, float maths); timed just
/// before a batch, it slows down with the host, and a batch's wall time
/// over the kernel's moves only with the simulator. It is benchmark code:
/// no change to the simulator changes its work.
pub struct Reference {
    table: Vec<u64>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            table: vec![1; REF_SPANS[0]],
        }
    }

    /// Size of the kernel's table in MB. It is written in full when made,
    /// so it stays resident from then on.
    pub fn resident_mb(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Seconds one run of the kernel takes now.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut acc = 0.0f64;
        for span in REF_SPANS {
            for _ in 0..REF_STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = &mut self.table[x as usize & (span - 1)];
                *slot = slot.wrapping_add(x).rotate_left(7);
                if x >> 63 == 1 {
                    acc = (acc + (x >> 11) as f64 * 1e-16).sqrt();
                }
            }
        }
        std::hint::black_box(acc);
        secs(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn reference_kernel_does_its_work() {
        let mut r = Reference::new();
        assert!(r.time() > 0.0);
        assert!(r.table.iter().any(|&w| w != 1), "no table update survived");
    }
}
