//! The unmodified-AP deployment: replication toward a middlebox (§5.3.2).
//!
//! Registers the flow at the middlebox, then runs a call where the world
//! replicates the stream toward it and the client fetches missing packets
//! with the start/stop protocol, and compares the recovery latency budget
//! against the customized-AP deployment (the paper's Table 3).
//!
//! Run with:
//! ```text
//! cargo run --release --example middlebox_deployment
//! ```

use diversifi::evaluation::{measure_switch_delays, middlebox_scalability, table3_row};
use diversifi::world::{RunMode, World, WorldConfig};
use diversifi_net::{Middlebox, MiddleboxConfig};
use diversifi_simcore::SeedFactory;
use diversifi_voip::DEFAULT_DEADLINE;
use diversifi_wifi::{Channel, FlowId, GeParams, LinkConfig};

fn main() {
    // --- Control plane: what the client's library sets up on the LAN. ---
    let voip = FlowId(1);
    println!("1. Registering the flow at the middlebox (head-drop ring of 5):");
    let mut mbox = Middlebox::new(MiddleboxConfig::default());
    mbox.register(voip, Some(5));
    println!("   service delay at this load: {}\n", mbox.service_delay());

    // --- Data plane: a full call in middlebox mode. ---
    println!("2. Running a 2-minute call with the unmodified secondary AP:");
    let primary = LinkConfig::office(Channel::CH1, 18.0);
    let mut secondary = LinkConfig::office(Channel::CH11, 26.0);
    secondary.ge = GeParams::weak_link();
    let mut cfg = WorldConfig::testbed(primary, secondary);
    cfg.mode = RunMode::DiversifiMiddlebox;
    let report = World::new(&cfg, &SeedFactory::new(0x5D11)).run();
    println!(
        "   residual loss {:.2}%, recovered {} packets via middlebox, {} start/stop visits\n",
        report.trace.loss_rate(DEFAULT_DEADLINE) * 100.0,
        report.alg_stats.recovered_on_secondary,
        report.alg_stats.recovery_visits,
    );

    // --- Table 3: latency budget of both deployments. ---
    println!("3. Recovery-delay breakdown over ~100 switches (paper Table 3):");
    let ap = table3_row(&measure_switch_delays(RunMode::DiversifiCustomAp, 100, 7));
    let mb = table3_row(&measure_switch_delays(RunMode::DiversifiMiddlebox, 100, 7));
    println!("              total  switching  network  queuing   (ms)");
    println!(
        "   Middlebox  {:5.1}      {:5.1}    {:5.1}    {:5.1}   [paper: 5.2 / 2.3 / 2 / 0.9]",
        mb.total_ms, mb.switching_ms, mb.network_ms, mb.queuing_ms
    );
    println!(
        "   AP         {:5.1}      {:5.1}    {:5.1}      -     [paper: 2.8 / 2.3 / 0.5 / -]",
        ap.total_ms, ap.switching_ms, ap.network_ms
    );

    // --- §6.4 scalability. ---
    println!("\n4. One middlebox serves a building (§6.4):");
    for (n, ms) in middlebox_scalability(&[0, 500, 1000]) {
        println!("   {n:>4} concurrent streams → recovery delay {ms:.2} ms");
    }
    println!("   (paper: +1.1 ms at 1000 streams)");
}
