//! The benchmark's metric vocabulary: every end-to-end metric with its
//! unit, direction and regression bound, and every per-layer metric of
//! the traced run. `BENCHMARK.json` at the repository root lists the same
//! names, units, directions and bounds (a unit test keeps them in step).

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric of the untraced run (`--trace 0`).
#[derive(Clone, Copy, Debug)]
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The bounds are set by the host, not by ambition: on a 2-vCPU guest
/// shared with other tenants, the same code runs up to 1.7 times slower
/// for minutes at a time, so the time bounds sit at the largest allowed
/// share.
pub const END_TO_END: [E2e; 3] = [
    // Parse, lower and warm up once more, median of several: work moved
    // out of the batches into set-up shows here. Each set-up's wall time
    // is scaled to the reference speed (`stats::REF_NOMINAL_S`) by the
    // kernel run just before it.
    E2e {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // The workload's own unit of work done in the time one run of the
    // fixed reference kernel takes (`stats::Reference`, timed just before
    // each batch), median over batches: throughput with the host's
    // current speed divided out.
    E2e {
        name: "ops_per_ref",
        unit: "1/ref",
        better: Better::Higher,
        bound: 0.25,
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// One per-layer metric of the traced run (`--trace 1`).
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A deterministic work counter: it must repeat bit for bit across runs
    /// of one seed and across worker counts. Reported from the first batch;
    /// every other metric is a median over the run's batches.
    pub exact: bool,
}

/// A measured time, share or size: less is better.
const fn t(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

/// A work counter: less work for the same outputs is better.
const fn x(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// A counter of work avoided.
const fn saved(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        exact: true,
    }
}

pub const PER_LAYER: [Layer; 53] = [
    // wifi::realization — World::new_cached_in, RealizationCache::stats().
    t("realization.build_us_miss", "us"),
    t("realization.build_us_hit", "us"),
    x("realization.misses", "count"),
    saved("realization.hits", "count"),
    // core::world event loop — World::run_in inside a telemetry session.
    t("world.run_us_p50", "us"),
    t("world.run_us_p99", "us"),
    x("world.events", "count"),
    t("world.dispatch_self_ms", "ms"),
    t("world.ns_per_event", "ns"),
    x("world.packets", "count"),
    t("world.unattributed_ms", "ms"),
    // wifi::mac — ChannelSample spans and MAC registry counters.
    x("mac.transmits", "count"),
    t("mac.transmit_ms", "ms"),
    t("mac.ns_per_transmit", "ns"),
    x("mac.exchanges", "count"),
    x("mac.air_losses", "count"),
    // wifi::ap and net::middlebox registry counters.
    x("ap.enqueued", "count"),
    x("ap.drops", "count"),
    x("middlebox.forwarded", "count"),
    x("middlebox.rolled_over", "count"),
    // client::algorithm1 registry counters.
    x("alg1.recovery_visits", "count"),
    x("alg1.keepalive_visits", "count"),
    x("alg1.probe_visits", "count"),
    x("alg1.hops", "count"),
    // simcore::fault — windows struck and never recovered from.
    x("fault.windows", "count"),
    x("fault.unrecovered", "count"),
    // voip::metrics / analysis reductions of the corpus.
    t("reduce.ms_per_corpus", "ms"),
    t("reduce.share", "frac"),
    // simcore::chaos generation and shrinking, core::chaos oracle.
    t("chaos.generate_us", "us"),
    t("chaos.shrink_ms", "ms"),
    x("chaos.shrink_evals", "count"),
    x("chaos.violations", "count"),
    t("chaos.serial_frac", "frac"),
    t("chaos.evaluate_ms_p50", "ms"),
    t("chaos.evaluate_ms_p99", "ms"),
    // core::population sampling and the campaign fold (16 calls in 1021,
    // timed in blocks and scaled to the campaign).
    t("population.sample_ns", "ns"),
    x("population.calls", "count"),
    t("fold.ns_per_call", "ns"),
    // simcore::flight worst-K selector.
    x("flight.offers", "count"),
    // simcore::campaign engine.
    t("campaign.shard_wall_ms_p50", "ms"),
    t("campaign.shard_wall_ms_p99", "ms"),
    t("campaign.merge_ms", "ms"),
    t("campaign.worker_idle_frac", "frac"),
    x("campaign.shards_run", "count"),
    x("campaign.shards_resumed", "count"),
    // Checkpoint IO. File sizes are not an exact counter: each file records
    // the campaign id, a hash whose decimal width varies with the scenario
    // (worker count and checkpoint path included).
    t("checkpoint.write_ms_p50", "ms"),
    t("checkpoint.write_ms_p99", "ms"),
    t("checkpoint.read_ms_per_shard", "ms"),
    t("checkpoint.bytes_per_shard", "bytes"),
    // Closed-loop arm probes of the fleet campaigns.
    t("probes.ms", "ms"),
    // Closure: traced wall minus every timed layer, and the cost of tracing.
    t("residue_ms", "ms"),
    t("residue_frac", "frac"),
    t("trace.overhead_frac", "frac"),
];

pub fn e2e(name: &str) -> Option<&'static E2e> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("BENCHMARK.json metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn triple(name: &str, unit: &str, better: Better) -> (String, String, String) {
        (
            name.to_string(),
            unit.to_string(),
            better.name().to_string(),
        )
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let v: Value = serde_json::from_str(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| triple(m.name, m.unit, m.better))
            .collect();
        assert_eq!(names(&v, "end_to_end"), want);
        for m in v.get("end_to_end").and_then(Value::as_array).unwrap() {
            let e = e2e(m.get("name").and_then(Value::as_str).unwrap()).unwrap();
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(e.bound));
        }
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| triple(m.name, m.unit, m.better))
            .collect();
        assert_eq!(names(&v, "per_layer"), want);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "{n} listed twice");
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
