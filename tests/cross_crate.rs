//! Cross-crate consistency tests: the contracts between substrate crates
//! that no single crate's unit tests can check.

use diversifi_client::LinkObservation;
use diversifi_net::{Middlebox, MiddleboxConfig, StreamPacket};
use diversifi_simcore::{SeedFactory, SimDuration, SimTime};
use diversifi_voip::{conceal, PlayoutConfig, StreamSpec, StreamTrace, DEFAULT_DEADLINE};
use diversifi_wifi::FlowId;

/// The middlebox keeps only the most recent window of a replicated
/// stream, and the start protocol returns it from the requested sequence.
#[test]
fn switch_feeds_middlebox() {
    let flow = FlowId(42);
    let mut mbox = Middlebox::new(MiddleboxConfig::default());
    mbox.register(flow, Some(5));

    let spec = StreamSpec::voip();
    for (seq, sent) in spec.schedule(SimTime::ZERO).take(50) {
        mbox.ingest(StreamPacket::new(flow, seq, spec.packet_bytes, sent));
    }
    assert_eq!(mbox.buffered(flow), 5, "only the ring stays");
    let (_, burst) = mbox.start(flow, 47);
    let seqs: Vec<u64> = burst.iter().map(|p| p.seq).collect();
    assert_eq!(seqs, vec![47, 48, 49]);
}

/// voip trace semantics match client strategy semantics: a strategy's
/// output trace has the same spec/length as its inputs and never invents
/// arrivals.
#[test]
fn strategies_preserve_trace_invariants() {
    let spec = StreamSpec {
        packet_bytes: 160,
        interval: SimDuration::from_millis(20),
        duration: SimDuration::from_secs(4),
    };
    let mk = |lose: fn(usize) -> bool, rssi: f64| {
        let mut tr = StreamTrace::new(spec, SimTime::ZERO);
        for i in 0..tr.len() {
            if !lose(i) {
                let sent = tr.fates[i].sent;
                tr.record_arrival(i as u64, sent + SimDuration::from_millis(9));
            }
        }
        LinkObservation { trace: tr, rssi_dbm: rssi }
    };
    let a = mk(|i| i % 7 == 0, -55.0);
    let b = mk(|i| i % 5 == 0, -65.0);

    for trace in [
        diversifi_client::stronger(&a, &b),
        diversifi_client::better(&a, &b, SimDuration::from_secs(1), DEFAULT_DEADLINE),
        diversifi_client::divert(&a, &b, &Default::default(), DEFAULT_DEADLINE),
        diversifi_client::cross_link(&a, &b),
    ] {
        assert_eq!(trace.len(), a.trace.len());
        for (i, fate) in trace.fates.iter().enumerate() {
            assert_eq!(fate.sent, a.trace.fates[i].sent, "send times preserved");
            if let Some(at) = fate.arrival {
                // No strategy can deliver a packet neither link delivered,
                // nor earlier than the earliest real arrival.
                let earliest = match (a.trace.fates[i].arrival, b.trace.fates[i].arrival) {
                    (Some(x), Some(y)) => x.min(y),
                    (Some(x), None) => x,
                    (None, Some(y)) => y,
                    (None, None) => panic!("strategy invented packet {i}"),
                };
                assert!(at >= earliest);
            }
        }
    }
}

/// Playout concealment and the E-model agree with the trace-level loss
/// accounting after a full two-NIC simulation (not just synthetic traces).
#[test]
fn qoe_pipeline_consistency_on_simulated_traces() {
    use diversifi::{run_two_nic, TwoNicScenario};
    use diversifi_wifi::{Channel, GeParams, LinkConfig, RealizationCache};
    let mut a = LinkConfig::office(Channel::CH1, 28.0);
    a.ge = GeParams::weak_link();
    let b = LinkConfig::office(Channel::CH11, 20.0);
    let mut spec = StreamSpec::voip();
    spec.duration = SimDuration::from_secs(30);
    let scn = TwoNicScenario::new(spec, a, b);
    let run = run_two_nic(&scn, &SeedFactory::new(0xCC), &RealizationCache::new(2));

    let playout = PlayoutConfig::default();
    let c = conceal(&run.a.trace, &playout);
    assert_eq!(c.total(), run.a.trace.len() as u64);
    let concealed = (c.interpolated + c.extrapolated) as f64 / c.total() as f64;
    let lost = run.a.trace.loss_rate(playout.playout_delay);
    assert!(
        (concealed - lost).abs() < 1e-9,
        "concealment ({concealed}) and trace loss ({lost}) must agree"
    );
}

/// Determinism across the entire stack: two full world runs with the same
/// seed agree on every observable.
#[test]
fn whole_stack_determinism() {
    use diversifi::world::{RunMode, World, WorldConfig};
    use diversifi_wifi::{Channel, GeParams, LinkConfig};
    let a = LinkConfig::office(Channel::CH1, 18.0);
    let mut b = LinkConfig::office(Channel::CH11, 25.0);
    b.ge = GeParams::weak_link();
    let mut cfg = WorldConfig::testbed(a, b);
    cfg.mode = RunMode::DiversifiMiddlebox;
    cfg.with_tcp = true;
    cfg.spec.duration = SimDuration::from_secs(20);
    let seeds = SeedFactory::new(0xDEED);
    let r1 = World::new(&cfg, &seeds).run();
    let r2 = World::new(&cfg, &seeds).run();
    assert_eq!(r1.trace.fates, r2.trace.fates);
    assert_eq!(r1.secondary_air_tx, r2.secondary_air_tx);
    assert_eq!(r1.secondary_wasteful_tx, r2.secondary_wasteful_tx);
    assert_eq!(r1.tcp_throughput_bps, r2.tcp_throughput_bps);
    assert_eq!(r1.alg_stats.recovery_visits, r2.alg_stats.recovery_visits);
    assert_eq!(r1.switch_delays.len(), r2.switch_delays.len());
}
