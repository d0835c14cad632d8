//! Stochastic channel-state processes, queried lazily at event times.
//!
//! Two processes drive the bursty loss behaviour the paper measures:
//!
//! - [`GilbertElliott`]: a two-state (Good/Bad) continuous-time Markov chain
//!   whose Bad-state dwell times are drawn from a two-component exponential
//!   mixture. The mixture's heavy tail is what keeps the loss process
//!   autocorrelated out to hundreds of milliseconds (paper Fig. 4) — long
//!   enough that both 802.11 MAC retries (tens of µs apart) and temporal
//!   replication at Δ ≤ 100 ms frequently land inside the same outage.
//! - [`OrnsteinUhlenbeck`]: mean-reverting Gaussian shadowing in dB, with a
//!   configurable decorrelation time. Mobility scenarios use a large sigma
//!   and short decorrelation time; static links a small one.
//!
//! Both processes advance lazily: callers query `at(t)` with non-decreasing
//! `t`, and the process consumes randomness only when state actually changes,
//! keeping draws deterministic per component stream.

use diversifi_simcore::{RngStream, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The two Gilbert–Elliott channel states.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum GeState {
    /// Channel is in its good state: loss governed by PHY SNR only.
    Good,
    /// Channel is in a fade/outage: high per-attempt loss regardless of rate.
    Bad,
}

/// Parameters of the Gilbert–Elliott process.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GeParams {
    /// Mean dwell time in the Good state.
    pub mean_good: SimDuration,
    /// Mean dwell of a *short* Bad episode (fast fade).
    pub mean_bad_short: SimDuration,
    /// Mean dwell of a *long* Bad episode (shadowing outage / deep fade).
    pub mean_bad_long: SimDuration,
    /// Probability that a Bad episode is a long one.
    pub p_long: f64,
    /// Extra per-attempt erasure probability contributed while Bad.
    pub bad_loss: f64,
    /// Residual per-attempt erasure probability while Good (interference
    /// crumbs not captured by the PHY model).
    pub good_loss: f64,
}

impl GeParams {
    /// A healthy office link: rare, mostly short fades.
    pub fn good_link() -> GeParams {
        GeParams {
            mean_good: SimDuration::from_millis(4_000),
            mean_bad_short: SimDuration::from_millis(40),
            mean_bad_long: SimDuration::from_millis(400),
            p_long: 0.15,
            bad_loss: 0.75,
            good_loss: 0.002,
        }
    }

    /// A marginal link: frequent fades with a heavier long tail.
    pub fn weak_link() -> GeParams {
        GeParams {
            mean_good: SimDuration::from_millis(900),
            mean_bad_short: SimDuration::from_millis(60),
            mean_bad_long: SimDuration::from_millis(700),
            p_long: 0.25,
            bad_loss: 0.85,
            good_loss: 0.01,
        }
    }

    /// Long-run fraction of time spent in the Bad state.
    pub fn bad_duty(&self) -> f64 {
        let mb = self.p_long * self.mean_bad_long.as_secs_f64()
            + (1.0 - self.p_long) * self.mean_bad_short.as_secs_f64();
        mb / (mb + self.mean_good.as_secs_f64())
    }
}

/// A lazily-advanced Gilbert–Elliott channel process.
#[derive(Clone, Debug)]
pub struct GilbertElliott {
    params: GeParams,
    state: GeState,
    /// Whether the current Bad episode is a "long" (shadowing-class) one.
    /// Long fades affect all MIMO spatial streams together; short
    /// (multipath-class) fades are what PHY spatial diversity mitigates.
    bad_is_long: bool,
    /// Time at which the current dwell ends.
    until: SimTime,
    last_query: SimTime,
    rng: RngStream,
}

impl GilbertElliott {
    /// Create the process; initial state is drawn from the stationary
    /// distribution so short simulations are not biased toward Good starts.
    pub fn new(params: GeParams, mut rng: RngStream) -> Self {
        let duty = params.bad_duty();
        let state = if rng.chance(duty) { GeState::Bad } else { GeState::Good };
        let mut ge = GilbertElliott {
            params,
            state,
            bad_is_long: false,
            until: SimTime::ZERO,
            last_query: SimTime::ZERO,
            rng,
        };
        ge.until = SimTime::ZERO + ge.sample_dwell(state);
        ge
    }

    fn sample_dwell(&mut self, state: GeState) -> SimDuration {
        let mean = match state {
            GeState::Good => self.params.mean_good,
            GeState::Bad => {
                self.bad_is_long = self.rng.chance(self.params.p_long);
                if self.bad_is_long {
                    self.params.mean_bad_long
                } else {
                    self.params.mean_bad_short
                }
            }
        };
        // Exponential dwell with the chosen mean; floor of 1 µs avoids
        // zero-length dwells spinning the advance loop.
        let secs = self.rng.exponential(mean.as_secs_f64());
        SimDuration::from_secs_f64(secs.max(1e-6))
    }

    /// Channel state at time `t`. Queries must be non-decreasing in `t`.
    pub fn state_at(&mut self, t: SimTime) -> GeState {
        assert!(t >= self.last_query, "GilbertElliott queried backwards in time");
        self.last_query = t;
        while self.until <= t {
            self.state = match self.state {
                GeState::Good => GeState::Bad,
                GeState::Bad => GeState::Good,
            };
            let dwell = self.sample_dwell(self.state);
            self.until += dwell;
        }
        self.state
    }

    /// Whether time `t` falls in a *long* (shadowing-class) Bad episode.
    /// Valid only when `state_at(t)` is [`GeState::Bad`].
    pub fn bad_is_long_at(&mut self, t: SimTime) -> bool {
        self.state_at(t) == GeState::Bad && self.bad_is_long
    }

    /// The parameters this process runs with.
    pub fn params(&self) -> &GeParams {
        &self.params
    }

    /// Consume the process and materialise its dwell timeline as piecewise
    /// segments covering at least `[0, horizon]`.
    ///
    /// The segments are produced by the exact same draw sequence that
    /// [`state_at`](Self::state_at) would consume, so replaying them yields
    /// bit-identical channel states to lazy sampling — the foundation of the
    /// realisation-replay contract (see `diversifi-wifi`'s `realization`
    /// module).
    pub fn materialize_until(mut self, horizon: SimTime) -> Vec<GeSegment> {
        let mut segs = vec![GeSegment {
            state: self.state,
            long: self.state == GeState::Bad && self.bad_is_long,
            until: self.until,
        }];
        while segs.last().expect("seed segment").until <= horizon {
            self.state = match self.state {
                GeState::Good => GeState::Bad,
                GeState::Bad => GeState::Good,
            };
            let dwell = self.sample_dwell(self.state);
            self.until += dwell;
            segs.push(GeSegment {
                state: self.state,
                long: self.state == GeState::Bad && self.bad_is_long,
                until: self.until,
            });
        }
        segs
    }
}

/// One dwell interval of a materialised Gilbert–Elliott timeline: the channel
/// holds `state` until (exclusive) `until`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GeSegment {
    /// Channel state during this dwell.
    pub state: GeState,
    /// Whether a Bad dwell is a *long* (shadowing-class) episode; always
    /// `false` for Good dwells.
    pub long: bool,
    /// End of the dwell; the next segment starts here.
    pub until: SimTime,
}

/// Mean-reverting Gaussian (Ornstein–Uhlenbeck) process for shadowing, in dB.
#[derive(Clone, Debug)]
pub struct OrnsteinUhlenbeck {
    /// Long-run standard deviation (dB).
    sigma: f64,
    /// Decorrelation (relaxation) time.
    tau: SimDuration,
    value: f64,
    last: SimTime,
    rng: RngStream,
}

impl OrnsteinUhlenbeck {
    /// Create with long-run std-dev `sigma` (dB) and decorrelation time
    /// `tau`; the initial value is drawn from the stationary distribution.
    pub fn new(sigma: f64, tau: SimDuration, mut rng: RngStream) -> Self {
        assert!(sigma >= 0.0 && !tau.is_zero());
        let value = rng.normal(0.0, sigma);
        OrnsteinUhlenbeck { sigma, tau, value, last: SimTime::ZERO, rng }
    }

    /// Shadowing value at `t` (dB offset to path loss). Queries must be
    /// non-decreasing. Uses the exact OU transition, so irregular query
    /// spacing does not bias the distribution.
    pub fn at(&mut self, t: SimTime) -> f64 {
        assert!(t >= self.last, "OU process queried backwards in time");
        let dt = (t - self.last).as_secs_f64();
        self.last = t;
        if dt > 0.0 && self.sigma > 0.0 {
            let (a, noise_sd) = self.transition_coeffs(dt);
            self.value = self.value * a + noise_sd * self.rng.normal_std();
        }
        self.value
    }

    /// The exact-transition coefficients `(decay, noise_sd)` for a step of
    /// `dt` seconds. On a fixed grid these are constants, so grid
    /// stepping ([`fill_grid`](Self::fill_grid)) computes them once per
    /// process instead of one `exp` and `sqrt` per tick; because both paths
    /// evaluate the *same expressions*, hoisting is bit-identical.
    pub fn transition_coeffs(&self, dt: f64) -> (f64, f64) {
        let a = (-dt / self.tau.as_secs_f64()).exp();
        let noise_sd = self.sigma * (1.0 - a * a).sqrt();
        (a, noise_sd)
    }

    /// Advance `out.len()` grid steps of `dt` using coefficients from
    /// [`transition_coeffs`](Self::transition_coeffs), writing each step's
    /// value to `out`. Bit-identical to `at(last + dt)`,
    /// `at(last + 2·dt)`, …: the block's normals come from one
    /// [`RngStream::fill_normal_std`], which equals that many scalar draws.
    /// `sigma == 0` draws nothing, so the stream position stays in lockstep
    /// with the lazy path.
    pub fn fill_grid(&mut self, dt: SimDuration, a: f64, noise_sd: f64, out: &mut [f64]) {
        self.last += dt * out.len() as u64;
        if self.sigma > 0.0 {
            self.rng.fill_normal_std(out);
            let mut value = self.value;
            for x in out.iter_mut() {
                value = value * a + noise_sd * *x;
                *x = value;
            }
            self.value = value;
        } else {
            out.fill(self.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_simcore::SeedFactory;

    fn rng(i: u64) -> RngStream {
        SeedFactory::new(0xD1CE).stream("fading-test", i)
    }

    #[test]
    fn ge_duty_cycle_matches_params() {
        let params = GeParams::weak_link();
        let mut ge = GilbertElliott::new(params, rng(0));
        let step = SimDuration::from_millis(1);
        let mut t = SimTime::ZERO;
        let mut bad = 0u64;
        let n = 400_000u64;
        for _ in 0..n {
            if ge.state_at(t) == GeState::Bad {
                bad += 1;
            }
            t += step;
        }
        let measured = bad as f64 / n as f64;
        let expected = params.bad_duty();
        assert!(
            (measured - expected).abs() < 0.05,
            "measured {measured:.3} vs expected {expected:.3}"
        );
    }

    #[test]
    fn ge_is_bursty_not_iid() {
        // Sample the loss indicator at 20 ms spacing (the VoIP packet clock)
        // and check lag-1 autocorrelation is clearly positive.
        let mut ge = GilbertElliott::new(GeParams::weak_link(), rng(1));
        let mut series = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..40_000 {
            series.push(if ge.state_at(t) == GeState::Bad { 1.0 } else { 0.0 });
            t += SimDuration::from_millis(20);
        }
        let ac1 = diversifi_simcore::autocorrelation(&series, 1);
        assert!(ac1 > 0.3, "lag-1 autocorrelation {ac1} too small for a bursty process");
    }

    #[test]
    fn two_ge_processes_are_uncorrelated() {
        let mut a = GilbertElliott::new(GeParams::weak_link(), rng(2));
        let mut b = GilbertElliott::new(GeParams::weak_link(), rng(3));
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        let mut t = SimTime::ZERO;
        for _ in 0..40_000 {
            sa.push(if a.state_at(t) == GeState::Bad { 1.0 } else { 0.0 });
            sb.push(if b.state_at(t) == GeState::Bad { 1.0 } else { 0.0 });
            t += SimDuration::from_millis(20);
        }
        let cc = diversifi_simcore::cross_correlation(&sa, &sb, 0);
        assert!(cc.abs() < 0.05, "independent links should be uncorrelated, got {cc}");
    }

    #[test]
    fn ge_deterministic_per_seed() {
        let mut a = GilbertElliott::new(GeParams::good_link(), rng(4));
        let mut b = GilbertElliott::new(GeParams::good_link(), rng(4));
        let mut t = SimTime::ZERO;
        for _ in 0..10_000 {
            assert_eq!(a.state_at(t), b.state_at(t));
            t += SimDuration::from_micros(1500);
        }
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn ge_rejects_time_travel() {
        let mut ge = GilbertElliott::new(GeParams::good_link(), rng(5));
        ge.state_at(SimTime::from_millis(10));
        ge.state_at(SimTime::from_millis(5));
    }

    #[test]
    fn materialized_segments_match_lazy_sampling() {
        // Same seed, two consumers: one lazily queried on a fine grid, one
        // materialised up-front. Replay from segments must agree everywhere.
        let horizon = SimTime::from_secs(30);
        let segs = GilbertElliott::new(GeParams::weak_link(), rng(10)).materialize_until(horizon);
        assert!(segs.last().unwrap().until > horizon);
        let mut lazy = GilbertElliott::new(GeParams::weak_link(), rng(10));
        let mut idx = 0usize;
        let mut t = SimTime::ZERO;
        while t <= horizon {
            while idx + 1 < segs.len() && segs[idx].until <= t {
                idx += 1;
            }
            assert_eq!(segs[idx].state, lazy.state_at(t), "state diverged at {t}");
            let long = segs[idx].state == GeState::Bad && segs[idx].long;
            assert_eq!(long, lazy.bad_is_long_at(t), "long-flag diverged at {t}");
            t += SimDuration::from_micros(1731);
        }
    }

    #[test]
    fn ou_stationary_moments() {
        let mut ou = OrnsteinUhlenbeck::new(3.0, SimDuration::from_millis(500), rng(7));
        let mut xs = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..100_000 {
            xs.push(ou.at(t));
            t += SimDuration::from_millis(50);
        }
        let mean = diversifi_simcore::mean(&xs);
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!((var - 9.0).abs() < 1.0, "var {var}");
    }

    #[test]
    fn ou_is_smooth_at_short_lags() {
        let mut ou = OrnsteinUhlenbeck::new(6.0, SimDuration::from_secs(1), rng(8));
        let mut prev = ou.at(SimTime::ZERO);
        let mut max_jump: f64 = 0.0;
        let mut t = SimTime::ZERO;
        for _ in 0..10_000 {
            t += SimDuration::from_millis(5);
            let v = ou.at(t);
            max_jump = max_jump.max((v - prev).abs());
            prev = v;
        }
        // 5 ms at tau=1 s: per-step noise sd ≈ 6*sqrt(2*0.005) ≈ 0.6 dB.
        assert!(max_jump < 3.5, "max 5ms jump {max_jump} dB too large");
    }

    #[test]
    fn ou_zero_sigma_is_constant_zero_noise() {
        let mut ou = OrnsteinUhlenbeck::new(0.0, SimDuration::from_secs(1), rng(9));
        let first = ou.at(SimTime::ZERO);
        assert_eq!(first, 0.0);
        assert_eq!(ou.at(SimTime::from_secs(5)), first);
    }

    #[test]
    fn grid_stepping_is_bit_identical_to_lazy_queries() {
        // Same seed, two consumers: one queried tick-by-tick through the
        // general transition, one filled in blocks of uneven length by
        // hoisted grid coefficients.
        let dt = SimDuration::from_millis(2);
        for (sigma, tau) in [(3.0, SimDuration::from_secs(4)), (0.0, SimDuration::from_secs(1))] {
            let mut lazy = OrnsteinUhlenbeck::new(sigma, tau, rng(11));
            let mut grid = OrnsteinUhlenbeck::new(sigma, tau, rng(11));
            let (a, noise_sd) = grid.transition_coeffs(dt.as_secs_f64());
            let mut k = 0u64;
            for len in [1usize, 0, 63, 64, 65, 7, 300, 1_500] {
                let mut block = vec![f64::NAN; len];
                grid.fill_grid(dt, a, noise_sd, &mut block);
                for got in block {
                    k += 1;
                    let want = lazy.at(SimTime::from_nanos(k * dt.as_nanos()));
                    assert_eq!(want.to_bits(), got.to_bits(), "diverged at tick {k}");
                }
            }
            // Afterwards both must resume from the same stream position.
            let t = SimTime::from_nanos((k + 1) * dt.as_nanos());
            assert_eq!(lazy.at(t).to_bits(), grid.at(t).to_bits());
        }
    }
}
