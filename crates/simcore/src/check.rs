//! The invariant-audit layer: always-compiled runtime checks threaded
//! through the simulator's hot path.
//!
//! Tier-1 tests spot-check behaviour; this module *proves* structural
//! claims continuously while every test and sweep runs:
//!
//! - [`sim_assert!`]/[`sim_assert_eq!`] — invariant assertions that are
//!   active in debug builds **and** in release builds compiled with the
//!   `audit` cargo feature, so release-mode CI exercises the same checks.
//!   Unlike `debug_assert!`, an invariant guarded this way cannot silently
//!   rot in optimised binaries.
//! - [`PacketLedger`] — a packet-conservation ledger for the world model:
//!   every stream-packet copy that enters the network must end in exactly
//!   one fate (delivered, queue-dropped, air-lost, ring-rolled, or still
//!   in flight at the horizon), and the ledger's view of queue occupancy
//!   must match the devices' ground truth at finalisation.
//!
//! The audit layer **observes only**: it never draws randomness, schedules
//! events, or mutates simulation state, so audit-on and audit-off runs are
//! bit-identical by construction (a property `tests/invariant_audit.rs`
//! pins at 1/2/4/8 worker threads).
//!
//! [`sim_assert!`]: crate::sim_assert
//! [`sim_assert_eq!`]: crate::sim_assert_eq

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// `true` when the audit checks are compiled in: every debug build, and
/// release builds with `--features audit`. When `false`, [`sim_assert!`]
/// bodies constant-fold away entirely.
///
/// [`sim_assert!`]: crate::sim_assert
pub const AUDIT_COMPILED: bool = cfg!(any(debug_assertions, feature = "audit"));

/// Runtime kill-switch (default: checks run whenever compiled in). Tests
/// use [`set_enabled`] to compare audit-on vs audit-off output.
static SUSPENDED: AtomicBool = AtomicBool::new(false);

/// Are audit checks active right now?
#[inline(always)]
pub fn enabled() -> bool {
    AUDIT_COMPILED && !SUSPENDED.load(Ordering::Relaxed)
}

/// Suspend (`false`) or resume (`true`) audit checks at runtime. The
/// differential tests use this to demonstrate that the audit layer only
/// observes: outputs must be bit-identical either way. A no-op when the
/// checks are not compiled in.
pub fn set_enabled(on: bool) {
    SUSPENDED.store(!on, Ordering::Relaxed);
}

/// Report an invariant violation. Split out of the macros so the cold
/// panic path does not bloat every call site.
#[cold]
#[inline(never)]
pub fn audit_failure(msg: &str, file: &str, line: u32) -> ! {
    panic!("simulation invariant violated [{file}:{line}]: {msg}");
}

/// Run `f`, converting any panic — a tripped
/// [`sim_assert!`](crate::sim_assert), a [`PacketLedger`] closure
/// failure, or a plain engine bug — into an `Err` carrying the panic
/// message. This is the bridge the chaos engine uses to treat invariant
/// violations as *observations* (an `"engine-panic"` oracle verdict
/// attributable to one fault plan) instead of letting them poison a
/// whole campaign shard.
///
/// The closure is wrapped in [`AssertUnwindSafe`]: callers must not reuse
/// state `f` mutated before panicking (the chaos oracle rebuilds its
/// worlds from scratch per evaluation, so nothing is reused).
pub fn capture_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Assert a simulation invariant.
///
/// Active in debug builds and in `--features audit` release builds;
/// compiled out otherwise. Use it wherever `debug_assert!` would guard a
/// *simulation* invariant (as opposed to a plain programming precondition),
/// so release-mode CI keeps exercising the check.
#[macro_export]
macro_rules! sim_assert {
    ($cond:expr $(,)?) => {
        if $crate::check::enabled() && !($cond) {
            $crate::check::audit_failure(
                ::std::concat!("sim_assert failed: ", ::std::stringify!($cond)),
                ::std::file!(),
                ::std::line!(),
            );
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if $crate::check::enabled() && !($cond) {
            $crate::check::audit_failure(&::std::format!($($arg)+), ::std::file!(), ::std::line!());
        }
    };
}

/// Assert two expressions are equal, as a simulation invariant (see
/// [`sim_assert!`](crate::sim_assert)).
#[macro_export]
macro_rules! sim_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        if $crate::check::enabled() {
            let (__l, __r) = (&$left, &$right);
            if __l != __r {
                $crate::check::audit_failure(
                    &::std::format!(
                        "sim_assert_eq failed: {} != {} ({:?} vs {:?})",
                        ::std::stringify!($left),
                        ::std::stringify!($right),
                        __l,
                        __r
                    ),
                    ::std::file!(),
                    ::std::line!(),
                );
            }
        }
    }};
    ($left:expr, $right:expr, $($arg:tt)+) => {{
        if $crate::check::enabled() {
            let (__l, __r) = (&$left, &$right);
            if __l != __r {
                $crate::check::audit_failure(&::std::format!($($arg)+), ::std::file!(), ::std::line!());
            }
        }
    }};
}

/// Packet-conservation ledger for a closed-loop world run.
///
/// Every stream-packet *copy* that enters the network is tracked through a
/// fixed set of stages and terminal fates:
///
/// ```text
/// emit ──► in_transit ──► queued ──► in_tx ──► delivered
///              │             │          │  └──► delivered_unheard
///              │             │          └─────► air_lost
///              │             └────────────────► queue_dropped
///              ├──► stale_dropped (middlebox down: discarded at the door)
///              └──► buffered ──► rolled_over | stale_dropped
///                       └──────► in_transit (middlebox burst/stream)
/// ```
///
/// The world calls one transition method per hand-off; each keeps the
/// conservation identity `emitted == Σ stages + Σ fates` and checks
/// non-negativity. At the end of the run, [`PacketLedger::finalize`]
/// cross-checks the ledger's idea of queue and ring occupancy against the
/// devices' ground truth — which is what actually catches a forgotten
/// drop path or a double-counted delivery.
///
/// Counter updates are unconditional (a handful of integer adds; they can
/// never perturb simulation behaviour); only the *assertions* are gated on
/// [`enabled`].
#[derive(Clone, Debug, Default)]
pub struct PacketLedger {
    /// Copies that entered the network.
    pub emitted: i64,
    /// Copies on a wire/LAN leg (or a scheduled middlebox burst).
    pub in_transit: i64,
    /// Copies sitting in an AP driver or hardware queue.
    pub queued: i64,
    /// Copies currently being transmitted by a radio.
    pub in_tx: i64,
    /// Copies buffered in a middlebox ring.
    pub buffered: i64,
    /// Terminal: transmitted and heard by the client.
    pub delivered: i64,
    /// Terminal: transmitted successfully but the client was not listening.
    pub delivered_unheard: i64,
    /// Terminal: all link-layer retries failed.
    pub air_lost: i64,
    /// Terminal: dropped from an AP queue (head-drop, tail-drop, not
    /// associated, or flushed by an AP reboot).
    pub queue_dropped: i64,
    /// Terminal: displaced from a middlebox ring by rollover.
    pub rolled_over: i64,
    /// Terminal: drained from a middlebox ring but older than the client's
    /// start request (useless, discarded).
    pub stale_dropped: i64,
}

impl PacketLedger {
    /// A fresh ledger.
    pub fn new() -> PacketLedger {
        PacketLedger::default()
    }

    #[inline]
    fn check_nonneg(&self) {
        sim_assert!(
            self.in_transit >= 0
                && self.queued >= 0
                && self.in_tx >= 0
                && self.buffered >= 0,
            "packet ledger went negative: {self:?}"
        );
    }

    /// A copy enters the network toward an AP or the middlebox.
    #[inline]
    pub fn emit(&mut self) {
        self.emitted += 1;
        self.in_transit += 1;
    }

    /// A copy reached an AP and was queued (driver or hardware queue).
    #[inline]
    pub fn enqueue_ok(&mut self) {
        self.in_transit -= 1;
        self.queued += 1;
        self.check_nonneg();
    }

    /// A copy reached an AP and was rejected (tail-drop full, or the
    /// adapter is not associated).
    #[inline]
    pub fn enqueue_rejected(&mut self) {
        self.in_transit -= 1;
        self.queue_dropped += 1;
        self.check_nonneg();
    }

    /// A copy was admitted but displaced the oldest queued copy
    /// (head-drop): net queue occupancy is unchanged, one copy died.
    #[inline]
    pub fn enqueue_displaced(&mut self) {
        self.in_transit -= 1;
        self.queued += 1;
        // The displaced victim leaves the queue.
        self.queued -= 1;
        self.queue_dropped += 1;
        self.check_nonneg();
    }

    /// `n` queued copies were destroyed in place (e.g. an AP reboot).
    #[inline]
    pub fn flushed(&mut self, n: usize) {
        self.queued -= n as i64;
        self.queue_dropped += n as i64;
        self.check_nonneg();
    }

    /// The radio picked a queued copy for transmission.
    #[inline]
    pub fn tx_start(&mut self) {
        self.queued -= 1;
        self.in_tx += 1;
        self.check_nonneg();
    }

    /// Transmission succeeded and the client heard it.
    #[inline]
    pub fn tx_heard(&mut self) {
        self.in_tx -= 1;
        self.delivered += 1;
        self.check_nonneg();
    }

    /// Transmission succeeded on the air but the client was elsewhere.
    #[inline]
    pub fn tx_unheard(&mut self) {
        self.in_tx -= 1;
        self.delivered_unheard += 1;
        self.check_nonneg();
    }

    /// Transmission failed after all link-layer retries.
    #[inline]
    pub fn tx_lost(&mut self) {
        self.in_tx -= 1;
        self.air_lost += 1;
        self.check_nonneg();
    }

    /// A copy entered a middlebox ring.
    #[inline]
    pub fn mbox_buffer(&mut self) {
        self.in_transit -= 1;
        self.buffered += 1;
        self.check_nonneg();
    }

    /// A ring rollover displaced the oldest buffered copy.
    #[inline]
    pub fn mbox_rollover(&mut self) {
        self.buffered -= 1;
        self.rolled_over += 1;
        self.check_nonneg();
    }

    /// A middlebox in streaming state forwarded a live copy: it stays in
    /// transit (ingest leg ends, forward leg begins).
    #[inline]
    pub fn mbox_forward_live(&mut self) {
        // in_transit -1 (ingest completes) +1 (forward departs): no change,
        // but assert the stage is coherent.
        sim_assert!(self.in_transit > 0, "middlebox forwarded a copy that was not in transit");
    }

    /// A `start` request drained the ring: `forwarded` copies head for the
    /// secondary AP, `stale` copies (older than the request) are discarded.
    #[inline]
    pub fn mbox_drain(&mut self, forwarded: usize, stale: usize) {
        self.buffered -= (forwarded + stale) as i64;
        self.in_transit += forwarded as i64;
        self.stale_dropped += stale as i64;
        self.check_nonneg();
    }

    /// A copy arrived at a middlebox whose process is down (or whose SDN
    /// replication rule is not installed yet after a restart): discarded
    /// at the door instead of being buffered.
    #[inline]
    pub fn mbox_discard(&mut self) {
        self.in_transit -= 1;
        self.stale_dropped += 1;
        self.check_nonneg();
    }

    /// Copies that reached a terminal fate.
    pub fn terminal(&self) -> i64 {
        self.delivered
            + self.delivered_unheard
            + self.air_lost
            + self.queue_dropped
            + self.rolled_over
            + self.stale_dropped
    }

    /// Copies still in some stage of the network (in flight at the horizon).
    pub fn in_flight(&self) -> i64 {
        self.in_transit + self.queued + self.in_tx + self.buffered
    }

    /// End-of-run audit: the conservation identity must close, and the
    /// ledger's queue/ring occupancy must match the devices' ground truth.
    ///
    /// * `queued_truth` — total frames actually sitting in the audited AP
    ///   queues (driver + hardware) at the horizon.
    /// * `buffered_truth` — packets actually in the audited middlebox rings.
    /// * `max_in_tx` — upper bound on concurrently transmitting copies
    ///   (one per radio).
    pub fn finalize(&self, queued_truth: usize, buffered_truth: usize, max_in_tx: i64) {
        if !enabled() {
            return;
        }
        sim_assert_eq!(
            self.queued,
            queued_truth as i64,
            "AP queue occupancy diverged from ledger: ledger {} vs device {} ({self:?})",
            self.queued,
            queued_truth
        );
        sim_assert_eq!(
            self.buffered,
            buffered_truth as i64,
            "middlebox ring occupancy diverged from ledger: ledger {} vs device {} ({self:?})",
            self.buffered,
            buffered_truth
        );
        sim_assert!(
            self.in_tx >= 0 && self.in_tx <= max_in_tx,
            "in-tx copies out of range: {} (max {max_in_tx})",
            self.in_tx
        );
        sim_assert!(self.in_transit >= 0, "negative in-transit count: {}", self.in_transit);
        sim_assert_eq!(
            self.emitted,
            self.terminal() + self.in_flight(),
            "packet conservation violated: emitted {} != terminal {} + in-flight {} ({self:?})",
            self.emitted,
            self.terminal(),
            self.in_flight()
        );
    }
}

/// Conservation ledger for uplink input ticks (the FPS workload's
/// client→server packet class). Much simpler than [`PacketLedger`] —
/// a tick's fate is decided at emission time (delivered after bounded
/// retries, lost on the air, or blacked out because the client had no
/// usable radio) — but the same contract holds: counter updates are
/// unconditional and behaviour-neutral; the closure assertion is gated
/// on [`enabled`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TickLedger {
    /// Ticks the client fired.
    pub emitted: i64,
    /// Ticks that reached the server.
    pub delivered: i64,
    /// Ticks whose every transmission attempt died on the air.
    pub lost: i64,
    /// Ticks fired while the client was mid-retune with no association —
    /// never transmitted at all.
    pub blackout: i64,
}

impl TickLedger {
    /// A fresh ledger.
    pub fn new() -> TickLedger {
        TickLedger::default()
    }

    /// The client fired a tick.
    #[inline]
    pub fn emit(&mut self) {
        self.emitted += 1;
    }

    /// The tick reached the server.
    #[inline]
    pub fn delivered(&mut self) {
        self.delivered += 1;
    }

    /// Every attempt died on the air.
    #[inline]
    pub fn lost(&mut self) {
        self.lost += 1;
    }

    /// No radio to transmit on.
    #[inline]
    pub fn blackout(&mut self) {
        self.blackout += 1;
    }

    /// Every emitted tick must have reached exactly one fate.
    pub fn finalize(&self) {
        if !enabled() {
            return;
        }
        sim_assert_eq!(
            self.emitted,
            self.delivered + self.lost + self.blackout,
            "tick conservation violated: emitted {} != delivered {} + lost {} + blackout {}",
            self.emitted,
            self.delivered,
            self.lost,
            self.blackout
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_in_matches_build_config() {
        // Debug/test builds carry the layer via debug_assertions; release
        // only with the audit feature (the CI audit job's configuration).
        assert_eq!(AUDIT_COMPILED, cfg!(any(debug_assertions, feature = "audit")));
    }

    #[test]
    fn capture_panic_returns_values_and_harvests_messages() {
        assert_eq!(capture_panic(|| 41 + 1), Ok(42));
        let err = capture_panic(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(err, "boom 7");
        if AUDIT_COMPILED {
            // A tripped sim_assert surfaces as a capturable message too.
            let err = capture_panic(|| sim_assert!(1 == 2, "bad math")).unwrap_err();
            assert!(err.contains("simulation invariant violated"), "{err}");
            assert!(err.contains("bad math"), "{err}");
        }
    }

    #[test]
    fn sim_assert_fires_when_enabled() {
        if !AUDIT_COMPILED {
            return; // nothing to catch in an audit-free build
        }
        let r = std::panic::catch_unwind(|| {
            crate::sim_assert!(1 + 1 == 3, "arithmetic broke: {}", 42);
        });
        let msg = *r.expect_err("must panic").downcast::<String>().unwrap();
        assert!(msg.contains("simulation invariant violated"), "{msg}");
        assert!(msg.contains("arithmetic broke: 42"), "{msg}");
    }

    #[test]
    fn sim_assert_eq_reports_both_sides() {
        if !AUDIT_COMPILED {
            return; // nothing to catch in an audit-free build
        }
        let r = std::panic::catch_unwind(|| {
            crate::sim_assert_eq!(2 + 2, 5);
        });
        let msg = *r.expect_err("must panic").downcast::<String>().unwrap();
        assert!(msg.contains("4 vs 5"), "{msg}");
    }

    #[test]
    fn suspended_checks_do_not_fire() {
        // NOTE: the switch is global; keep the suspended window tiny and
        // restore before asserting anything else.
        set_enabled(false);
        crate::sim_assert!(false, "must not fire while suspended");
        set_enabled(true);
        assert_eq!(enabled(), AUDIT_COMPILED);
    }

    #[test]
    fn ledger_happy_path_conserves() {
        let mut l = PacketLedger::new();
        for _ in 0..3 {
            l.emit();
        }
        l.enqueue_ok();
        l.enqueue_rejected();
        l.enqueue_ok();
        l.tx_start();
        l.tx_heard();
        l.tx_start();
        l.tx_lost();
        assert_eq!(l.terminal(), 3);
        assert_eq!(l.in_flight(), 0);
        l.finalize(0, 0, 2);
    }

    #[test]
    fn ledger_head_drop_keeps_occupancy() {
        let mut l = PacketLedger::new();
        for _ in 0..6 {
            l.emit();
        }
        for _ in 0..5 {
            l.enqueue_ok();
        }
        l.enqueue_displaced();
        assert_eq!(l.queued, 5);
        assert_eq!(l.queue_dropped, 1);
        l.finalize(5, 0, 1);
    }

    #[test]
    fn ledger_middlebox_flow() {
        let mut l = PacketLedger::new();
        for _ in 0..4 {
            l.emit();
        }
        l.mbox_buffer();
        l.mbox_buffer();
        l.mbox_buffer();
        l.mbox_rollover();
        // start(from_seq) drains: 1 forwarded, 1 stale.
        l.mbox_drain(1, 1);
        // The forwarded copy reaches the secondary AP.
        l.enqueue_ok();
        l.tx_start();
        l.tx_heard();
        // The 4th emitted copy is still on the LAN at the horizon.
        assert_eq!(l.in_transit, 1);
        l.finalize(0, 0, 1);
    }

    #[test]
    fn ledger_catches_occupancy_divergence() {
        if !AUDIT_COMPILED {
            return; // nothing to catch in an audit-free build
        }
        let mut l = PacketLedger::new();
        l.emit();
        l.enqueue_ok();
        let r = std::panic::catch_unwind(move || l.finalize(0, 0, 1));
        assert!(r.is_err(), "a forgotten dequeue must be caught at finalize");
    }

    #[test]
    fn ledger_catches_negative_stage() {
        if !AUDIT_COMPILED {
            return; // nothing to catch in an audit-free build
        }
        let mut l = PacketLedger::new();
        let r = std::panic::catch_unwind(move || l.tx_heard());
        assert!(r.is_err(), "tx without a queued copy must be caught");
    }

    #[test]
    fn ledger_middlebox_restart_wipe_and_door_discard() {
        let mut l = PacketLedger::new();
        for _ in 0..3 {
            l.emit();
        }
        // Two copies buffered before the restart, one in transit.
        l.mbox_buffer();
        l.mbox_buffer();
        // Restart wipes the ring (2 stale) …
        l.mbox_drain(0, 2);
        // … and the in-transit copy arrives while the process is down.
        l.mbox_discard();
        assert_eq!(l.stale_dropped, 3);
        assert_eq!(l.in_flight(), 0);
        l.finalize(0, 0, 1);
    }

    #[test]
    fn ledger_reboot_flush() {
        let mut l = PacketLedger::new();
        for _ in 0..4 {
            l.emit();
            l.enqueue_ok();
        }
        l.flushed(4);
        assert_eq!(l.queue_dropped, 4);
        l.finalize(0, 0, 1);
    }

    #[test]
    fn tick_ledger_closes_over_all_fates() {
        let mut l = TickLedger::new();
        for _ in 0..5 {
            l.emit();
        }
        l.delivered();
        l.delivered();
        l.lost();
        l.blackout();
        l.delivered();
        l.finalize();
    }

    #[test]
    fn tick_ledger_catches_unaccounted_tick() {
        if !AUDIT_COMPILED {
            return; // nothing to catch in an audit-free build
        }
        let mut l = TickLedger::new();
        l.emit();
        l.emit();
        l.delivered();
        let r = std::panic::catch_unwind(move || l.finalize());
        assert!(r.is_err(), "an emitted tick with no fate must be caught");
    }
}
