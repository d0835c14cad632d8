//! Monte-Carlo call-population model for the paper's Table 1.
//!
//! The paper analyses a year of user-rated calls from a large VoIP service
//! and shows that, relative to the overall poor-call rate, calls between
//! two Ethernet-connected peers rate much better and calls between two
//! WiFi-connected peers much worse, across four increasingly controlled
//! subsets. That dataset is proprietary; this module substitutes a
//! generative model of the same population structure:
//!
//! - **Subnets** (/24s) with a backhaul quality and an Ethernet-user
//!   fraction (enterprise subnets are mostly wired *and* well-connected —
//!   the confound the paper's row 2 controls for);
//! - **Devices** (PC vs low-end mobile, the row 3 control) with an
//!   audio-hardware impairment for cheap devices;
//! - **Last hops** (Ethernet near-lossless; WiFi drawn from a bursty loss
//!   distribution);
//! - A **user-rating model** mapping E-model MOS to the probability of a
//!   1–2 star rating.
//!
//! The outputs are the same relative ΔPCR cells the paper reports.

use diversifi_simcore::{RngStream, SeedFactory, SweepRunner};
use diversifi_voip::emodel::{mos_from_stats, CodecModel};
use serde::Serialize;

/// Last-hop technology of one peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum LastHop {
    /// Wired Ethernet.
    Ethernet,
    /// WiFi.
    Wifi,
}

/// Device class of one peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum DeviceClass {
    /// Desktop/laptop.
    Pc,
    /// Low-end phone/tablet (hardware impairments).
    Mobile,
}

/// One endpoint's drawn attributes.
#[derive(Clone, Copy, Debug)]
struct Endpoint {
    subnet: usize,
    last_hop: LastHop,
    device: DeviceClass,
}

/// A /24's attributes.
#[derive(Clone, Copy, Debug)]
struct Subnet {
    /// Extra WAN loss (%) contributed by this subnet's backhaul.
    backhaul_loss_pct: f64,
    /// Extra one-way delay (ms).
    backhaul_delay_ms: f64,
    /// Fraction of this subnet's endpoints on Ethernet.
    ethernet_fraction: f64,
}

/// One rated call.
#[derive(Clone, Copy, Debug)]
pub struct RatedCall {
    /// Both peers' last hops.
    pub hops: (LastHop, LastHop),
    /// Both peers' device classes.
    pub devices: (DeviceClass, DeviceClass),
    /// Whether both peers sit in Ethernet-majority subnets.
    pub wired_majority_subnets: bool,
    /// Whether the (randomly invited) user rated the call poor.
    pub rated_poor: bool,
}

/// Model parameters.
#[derive(Clone, Copy, Debug)]
pub struct PopulationModel {
    /// Number of subnets in the universe.
    pub n_subnets: usize,
    /// Fraction of endpoints that are PC-class.
    pub pc_fraction: f64,
    /// MOS penalty for a low-end mobile device (mic/speaker/CPU).
    pub mobile_mos_penalty: f64,
    /// Logistic steepness of the rating model.
    pub rating_steepness: f64,
    /// MOS at which a user is 50% likely to rate the call poor.
    pub rating_midpoint_mos: f64,
    /// MOS-independent floor on poor ratings (misclicks, non-network
    /// complaints, grumpy users) — without it, Ethernet–Ethernet calls
    /// would never rate poor and relative deltas would explode.
    pub rating_floor: f64,
}

impl Default for PopulationModel {
    fn default() -> Self {
        PopulationModel {
            n_subnets: 400,
            pc_fraction: 0.55,
            mobile_mos_penalty: 0.18,
            rating_steepness: 3.0,
            rating_midpoint_mos: 2.6,
            rating_floor: 0.085,
        }
    }
}

fn sample_subnet(rng: &mut RngStream) -> Subnet {
    // Two broad classes: enterprise-ish (well-connected, mostly wired) and
    // consumer/hotspot-ish (more variable backhaul, mostly wireless).
    if rng.chance(0.45) {
        Subnet {
            backhaul_loss_pct: rng.range_f64(0.0, 0.15),
            backhaul_delay_ms: rng.range_f64(5.0, 25.0),
            ethernet_fraction: rng.range_f64(0.5, 0.95),
        }
    } else {
        Subnet {
            backhaul_loss_pct: rng.range_f64(0.05, 0.7),
            backhaul_delay_ms: rng.range_f64(15.0, 90.0),
            ethernet_fraction: rng.range_f64(0.02, 0.45),
        }
    }
}

/// Draw the WiFi last hop's contribution: loss % and burstiness. A mixture:
/// most WiFi links are fine; a tail is in fade-prone conditions.
fn wifi_hop(rng: &mut RngStream) -> (f64, f64) {
    if rng.chance(0.82) {
        (rng.range_f64(0.0, 0.4), rng.range_f64(1.0, 2.0))
    } else if rng.chance(0.74) {
        (rng.range_f64(0.3, 1.5), rng.range_f64(1.5, 3.5))
    } else {
        (rng.range_f64(1.2, 5.5), rng.range_f64(2.0, 5.0))
    }
}

/// One sampled call with its internal quality figures exposed — what the
/// streaming campaign digests record beyond the boolean rating.
#[derive(Clone, Copy, Debug)]
pub struct SampledCall {
    /// The rated call (the [`simulate_calls`] output record).
    pub call: RatedCall,
    /// Device-adjusted MOS the rating model saw.
    pub mos: f64,
    /// End-to-end mouth-to-ear delay (ms).
    pub delay_ms: f64,
    /// Network-only one-way delay (ms): [`SampledCall::delay_ms`] minus
    /// the fixed codec + playout budget a voice pipeline adds. This is
    /// what deadline-driven workloads (FPS) compare against their tick
    /// deadlines — a game has no mouth-to-ear budget.
    pub network_delay_ms: f64,
    /// Composed end-to-end loss (%) across backhaul and WiFi hops — the
    /// input the E-model (and the FPS session estimator) scored.
    pub loss_pct: f64,
    /// Burst ratio of the lossiest WiFi hop (1 = independent losses).
    pub burst_ratio: f64,
    /// Whether both peers are PC-class (the Table 1 row 3 filter).
    pub pc_pair: bool,
}

/// A reusable per-call sampler: the subnet universe is drawn once at
/// construction (from the "population" stream), then [`CallSampler::call`]
/// is a pure function of the call index (each call draws from its own
/// "pop-call" stream). This is the indexed form [`simulate_calls`] always
/// used internally, extracted so campaign shards can fold calls one at a
/// time without materialising the population.
pub struct CallSampler {
    model: PopulationModel,
    seeds: SeedFactory,
    subnets: Vec<Subnet>,
}

impl CallSampler {
    /// Draw the subnet universe for `(model, seed)`.
    pub fn new(model: &PopulationModel, seed: u64) -> CallSampler {
        let seeds = SeedFactory::new(seed);
        let mut rng = seeds.stream("population", 0);
        let subnets: Vec<Subnet> = (0..model.n_subnets)
            .map(|_| sample_subnet(&mut rng))
            .collect();
        CallSampler { model: *model, seeds, subnets }
    }

    fn draw_endpoint(&self, rng: &mut RngStream) -> Endpoint {
        let subnet = rng.index(self.subnets.len());
        let sn = self.subnets[subnet];
        let device = if rng.chance(self.model.pc_fraction) {
            DeviceClass::Pc
        } else {
            DeviceClass::Mobile
        };
        // Mobiles are always on WiFi; PCs follow their subnet's wiring.
        let last_hop = match device {
            DeviceClass::Mobile => LastHop::Wifi,
            DeviceClass::Pc => {
                if rng.chance(sn.ethernet_fraction) {
                    LastHop::Ethernet
                } else {
                    LastHop::Wifi
                }
            }
        };
        Endpoint {
            subnet,
            last_hop,
            device,
        }
    }

    /// Sample call `i`. Bit-identical for a given `(model, seed, i)` at
    /// any thread count and in any order.
    pub fn call(&self, i: u64) -> SampledCall {
        let model = &self.model;
        let mut rng = self.seeds.stream("pop-call", i);
        let a = self.draw_endpoint(&mut rng);
        let b = self.draw_endpoint(&mut rng);
        let sa = self.subnets[a.subnet];
        let sb = self.subnets[b.subnet];

        // Compose loss multiplicatively and delay additively. The wifi
        // extras accumulate separately so `network_delay_ms` can be
        // reported without perturbing `delay_ms`'s float operation order
        // (campaign digests fingerprint its exact bits).
        let mut loss_pct = sa.backhaul_loss_pct + sb.backhaul_loss_pct;
        let mut burst = 1.0f64;
        let mut delay_ms = sa.backhaul_delay_ms + sb.backhaul_delay_ms + 60.0;
        let mut wifi_delay_ms = 0.0f64;
        for (hop, sn) in [(a.last_hop, sa), (b.last_hop, sb)] {
            if hop == LastHop::Wifi {
                let (l, br) = wifi_hop(&mut rng);
                // Dense enterprise deployments trade backhaul quality
                // for more co-channel contention on the air.
                let density = if sn.ethernet_fraction >= 0.5 {
                    1.5
                } else {
                    1.0
                };
                loss_pct += l * density;
                burst = burst.max(br);
                let d = rng.range_f64(2.0, 15.0);
                delay_ms += d;
                wifi_delay_ms += d;
            }
        }
        let q = mos_from_stats(&CodecModel::g711_plc(), loss_pct, burst, delay_ms);
        let mut mos = q.mos;
        for dev in [a.device, b.device] {
            if dev == DeviceClass::Mobile {
                mos -= model.mobile_mos_penalty;
            }
        }
        // Rating model: logistic in MOS on top of a constant floor.
        let logistic =
            1.0 / (1.0 + ((mos - model.rating_midpoint_mos) * model.rating_steepness).exp());
        let p_poor = model.rating_floor + (1.0 - model.rating_floor) * logistic;
        let rated_poor = rng.chance(p_poor);

        let wired_majority = sa.ethernet_fraction >= 0.5 && sb.ethernet_fraction >= 0.5;
        SampledCall {
            call: RatedCall {
                hops: (a.last_hop, b.last_hop),
                devices: (a.device, b.device),
                wired_majority_subnets: wired_majority,
                rated_poor,
            },
            mos,
            delay_ms,
            network_delay_ms: sa.backhaul_delay_ms + sb.backhaul_delay_ms + wifi_delay_ms,
            loss_pct,
            burst_ratio: burst,
            pc_pair: a.device == DeviceClass::Pc && b.device == DeviceClass::Pc,
        }
    }
}

/// Simulate `n_calls` rated calls.
///
/// Runs on the shared [`SweepRunner`]: the subnet universe is drawn once
/// from the "population" stream, then each call draws from its own
/// "pop-call" stream, so the output is a pure function of `seed` at any
/// worker count.
pub fn simulate_calls(model: &PopulationModel, n_calls: usize, seed: u64) -> Vec<RatedCall> {
    let sampler = CallSampler::new(model, seed);
    SweepRunner::available().run_indexed(n_calls, |i| sampler.call(i as u64).call)
}

/// The EE / EW / WW relative-ΔPCR cells of one Table 1 row.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct Table1Row {
    /// Relative ΔPCR (%) for Ethernet–Ethernet calls ('+' = better).
    pub ee: f64,
    /// Relative ΔPCR (%) for mixed calls.
    pub ew: f64,
    /// Relative ΔPCR (%) for WiFi–WiFi calls.
    pub ww: f64,
    /// Baseline PCR used (fraction) — not reported by the paper but kept
    /// for diagnostics.
    pub baseline_pcr: f64,
}

fn pcr(calls: &[&RatedCall]) -> f64 {
    if calls.is_empty() {
        return 0.0;
    }
    calls.iter().filter(|c| c.rated_poor).count() as f64 / calls.len() as f64
}

/// The paper's relative difference: `(PCR_all − PCR_X) / PCR_all · 100`.
pub fn relative_delta(pcr_all: f64, pcr_subset: f64) -> f64 {
    if pcr_all == 0.0 {
        return 0.0;
    }
    (pcr_all - pcr_subset) / pcr_all * 100.0
}

fn hop_class(c: &RatedCall) -> (u8, u8) {
    let n = |h: LastHop| if h == LastHop::Ethernet { 0u8 } else { 1u8 };
    let (x, y) = (n(c.hops.0), n(c.hops.1));
    (x.min(y), x.max(y))
}

/// Compute one Table 1 row over a filtered subset of calls, relative to
/// the *global* baseline `pcr_all` (the paper compares every subset to
/// PCR_all over all 2014 calls, which is why row 2's cells improve across
/// the board when only well-connected subnets are considered).
pub fn table1_row<'a>(calls: impl Iterator<Item = &'a RatedCall>, pcr_all: f64) -> Table1Row {
    // One pass, no intermediate vectors: a 120k-call population previously
    // materialised four Vec<&RatedCall> per row. Count (poor, total) per
    // hop class instead; the per-class PCR is the same ratio `pcr()` would
    // compute over the filtered subset.
    let mut poor = [0u64; 3];
    let mut total = [0u64; 3];
    for c in calls {
        let class = match hop_class(c) {
            (0, 0) => 0,
            (0, 1) => 1,
            _ => 2,
        };
        total[class] += 1;
        if c.rated_poor {
            poor[class] += 1;
        }
    }
    let pcr_of = |i: usize| if total[i] == 0 { 0.0 } else { poor[i] as f64 / total[i] as f64 };
    Table1Row {
        ee: relative_delta(pcr_all, pcr_of(0)),
        ew: relative_delta(pcr_all, pcr_of(1)),
        ww: relative_delta(pcr_all, pcr_of(2)),
        baseline_pcr: pcr_all,
    }
}

/// The full Table 1: four rows with the paper's filters.
#[derive(Clone, Debug, Serialize)]
pub struct Table1 {
    /// Row 1: all calls.
    pub all: Table1Row,
    /// Row 2: only calls between Ethernet-majority /24s.
    pub wired_majority: Table1Row,
    /// Row 3: only PC-class devices.
    pub pc: Table1Row,
    /// Row 4: PC-class and Ethernet-majority /24s.
    pub pc_wired_majority: Table1Row,
}

/// Produce Table 1 from a simulated population.
pub fn table1(calls: &[RatedCall]) -> Table1 {
    let pc_only = |c: &&RatedCall| c.devices.0 == DeviceClass::Pc && c.devices.1 == DeviceClass::Pc;
    let all_refs: Vec<&RatedCall> = calls.iter().collect();
    let pcr_all = pcr(&all_refs);
    Table1 {
        all: table1_row(calls.iter(), pcr_all),
        wired_majority: table1_row(calls.iter().filter(|c| c.wired_majority_subnets), pcr_all),
        pc: table1_row(calls.iter().filter(pc_only), pcr_all),
        pc_wired_majority: table1_row(
            calls
                .iter()
                .filter(|c| c.wired_majority_subnets)
                .filter(pc_only),
            pcr_all,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calls() -> Vec<RatedCall> {
        simulate_calls(&PopulationModel::default(), 120_000, 0x7AB1E1)
    }

    #[test]
    fn table1_signs_match_paper() {
        let t = table1(&calls());
        // Row 1: EE clearly better than baseline, WW clearly worse.
        assert!(t.all.ee > 10.0, "EE {:+.1}%", t.all.ee);
        assert!(t.all.ww < -8.0, "WW {:+.1}%", t.all.ww);
        assert!(
            t.all.ew > t.all.ww && t.all.ew < t.all.ee,
            "EW {:+.1}%",
            t.all.ew
        );
    }

    #[test]
    fn controlling_for_subnets_narrows_but_keeps_the_gap() {
        let t = table1(&calls());
        // Row 2 (well-connected subnets): everything improves relative to
        // that row's baseline, and the EE–WW gap persists.
        assert!(t.wired_majority.ee > 0.0);
        assert!(t.wired_majority.ww < t.wired_majority.ee - 15.0);
        // The WW deficit shrinks when the backhaul confound is removed.
        assert!(
            t.wired_majority.ww > t.all.ww - 5.0,
            "row2 WW {:+.1} vs row1 WW {:+.1}",
            t.wired_majority.ww,
            t.all.ww
        );
    }

    #[test]
    fn pc_filter_removes_device_confound_but_wifi_gap_persists() {
        let t = table1(&calls());
        let gap_pc = t.pc.ee - t.pc.ww;
        assert!(
            gap_pc > 20.0,
            "PC-class EE–WW gap {gap_pc:+.1} should persist"
        );
        // Removing the device confound closes part of the WW deficit
        // (paper: −18.4% → −5.4%), relative to the same global baseline.
        assert!(
            t.pc.ww > t.all.ww,
            "PC WW {:+.1} should improve on all-device WW {:+.1}",
            t.pc.ww,
            t.all.ww
        );
        assert_eq!(
            t.pc.baseline_pcr, t.all.baseline_pcr,
            "all rows are relative to the same global baseline"
        );
    }

    #[test]
    fn baseline_pcr_plausible() {
        let t = table1(&calls());
        assert!(
            (0.02..0.30).contains(&t.all.baseline_pcr),
            "baseline PCR {:.3}",
            t.all.baseline_pcr
        );
    }

    #[test]
    fn deterministic() {
        let a = simulate_calls(&PopulationModel::default(), 5000, 1);
        let b = simulate_calls(&PopulationModel::default(), 5000, 1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rated_poor, y.rated_poor);
            assert_eq!(x.hops, y.hops);
        }
    }

    #[test]
    fn table1_row_single_pass_matches_subset_filtering() {
        // The counting rewrite must reproduce the collect-and-filter
        // reference bit for bit.
        let calls = simulate_calls(&PopulationModel::default(), 20_000, 0x7AB1E2);
        let all_refs: Vec<&RatedCall> = calls.iter().collect();
        let pcr_all = pcr(&all_refs);
        let row = table1_row(calls.iter(), pcr_all);
        let reference = |class: (u8, u8)| {
            let subset: Vec<&RatedCall> =
                calls.iter().filter(|c| hop_class(c) == class).collect();
            relative_delta(pcr_all, pcr(&subset))
        };
        assert_eq!(row.ee.to_bits(), reference((0, 0)).to_bits());
        assert_eq!(row.ew.to_bits(), reference((0, 1)).to_bits());
        assert_eq!(row.ww.to_bits(), reference((1, 1)).to_bits());
    }

    #[test]
    fn relative_delta_formula() {
        // The paper's worked example: PCR_all=10%, PCR_X=8% → +20%;
        // PCR_Y=15% → −50%.
        assert!((relative_delta(0.10, 0.08) - 20.0).abs() < 1e-9);
        assert!((relative_delta(0.10, 0.15) + 50.0).abs() < 1e-9);
        assert_eq!(relative_delta(0.0, 0.5), 0.0);
    }
}
