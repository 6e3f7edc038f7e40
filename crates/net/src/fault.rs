//! Deterministic fault injection for framed links.
//!
//! A [`FaultyLink`] sits between an endpoint's encoded output and the
//! peer's frame decoder and decides, per frame, whether the bytes are
//! delivered intact, silently dropped, truncated mid-write, or whether
//! the connection dies outright. Decisions come from a seeded
//! [`FaultPlan`] — same plan, same traffic, same faults — so every
//! chaos experiment and regression test replays exactly.
//!
//! Fault granularity matches how real links fail:
//!
//! * **drop** (frame granularity) — the frame vanishes but the stream
//!   stays framed; the receiver sees a gap and the session stalls.
//! * **truncate** (byte granularity) — a prefix of the frame is
//!   delivered and then the link dies, modeling a connection reset
//!   mid-write. The receiver holds a partial frame that never
//!   completes.
//! * **disconnect** (byte granularity) — the link dies at a planned
//!   byte offset regardless of frame boundaries, driving
//!   truncate-at-every-prefix style tests.
//! * **stall** — after a planned number of frames the link delivers
//!   nothing more without dying; drivers surface this as a stalled
//!   protocol rather than a connection error.
//!
//! Rates are integer per-mille (`0..=1000`) so plans are hashable,
//! exactly reproducible, and free of float drift across platforms.

use bytes::Bytes;
use optrep_core::rng::{mix_seed, SplitMix64};

/// A deterministic, seeded fault schedule for one link.
///
/// The plan is pure data: wrapping it in a [`FaultyLink`] produces the
/// actual per-frame decisions. Rates are per-mille (0 = never,
/// 1000 = always).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the decision stream.
    pub seed: u64,
    /// Per-mille probability that a frame is silently dropped.
    pub drop_per_mille: u16,
    /// Per-mille probability that a frame is truncated and the link
    /// dies mid-write.
    pub truncate_per_mille: u16,
    /// Deliver nothing after this many frames have been attempted
    /// (`None` = never stall).
    pub stall_after_frames: Option<u64>,
    /// Kill the link once this many bytes have been delivered,
    /// truncating the frame in flight (`None` = never disconnect).
    pub disconnect_after_bytes: Option<u64>,
}

impl FaultPlan {
    /// A plan that never faults: `FaultyLink` over it is a transparent
    /// pass-through.
    pub fn clean() -> Self {
        FaultPlan {
            seed: 0,
            drop_per_mille: 0,
            truncate_per_mille: 0,
            stall_after_frames: None,
            disconnect_after_bytes: None,
        }
    }

    /// A plan dropping frames at `per_mille`/1000 under `seed`.
    pub fn dropping(seed: u64, per_mille: u16) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: per_mille,
            ..FaultPlan::clean()
        }
    }

    /// A plan that kills the link after exactly `bytes` delivered bytes.
    pub fn disconnect_at(bytes: u64) -> Self {
        FaultPlan {
            disconnect_after_bytes: Some(bytes),
            ..FaultPlan::clean()
        }
    }

    /// The same schedule re-derived for another contact: the decision
    /// stream is re-seeded from `salt` so retries of a failed contact
    /// do not replay the identical fault pattern (which would make a
    /// deterministic retry loop livelock).
    pub fn reseeded(&self, salt: u64) -> Self {
        FaultPlan {
            seed: mix_seed(self.seed, salt),
            ..*self
        }
    }
}

/// What happened to one transmitted frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransmitOutcome {
    /// The frame arrived intact.
    Delivered(Bytes),
    /// The frame vanished; the link is still alive.
    Dropped,
    /// The link died. `prefix` holds the bytes (possibly empty) that
    /// made it out before death; `stalled` is `true` when the death is
    /// silent (a stall) rather than a detectable disconnect.
    Died {
        /// Bytes delivered before the link died.
        prefix: Bytes,
        /// `true` for a silent stall, `false` for a hard disconnect.
        stalled: bool,
    },
}

/// Counters for the faults a link actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames offered to the link.
    pub frames_offered: u64,
    /// Frames delivered intact.
    pub frames_delivered: u64,
    /// Frames silently dropped.
    pub frames_dropped: u64,
    /// Frames truncated by a mid-write death.
    pub frames_truncated: u64,
    /// Bytes actually delivered (including truncated prefixes).
    pub bytes_delivered: u64,
}

/// A fault-injecting wrapper around a framed byte link.
///
/// Both directions of one connection share a single `FaultyLink`: the
/// decision stream covers the connection, not one endpoint, so a plan
/// describes "this link's weather" independent of who is sending.
/// Once the link dies (truncate, disconnect or stall) every subsequent
/// transmit reports [`TransmitOutcome::Died`] with an empty prefix.
#[derive(Debug, Clone)]
pub struct FaultyLink {
    plan: FaultPlan,
    rng: SplitMix64,
    dead: bool,
    stalled: bool,
    stats: FaultStats,
}

impl FaultyLink {
    /// Wraps a plan into a live link.
    pub fn new(plan: FaultPlan) -> Self {
        FaultyLink {
            plan,
            rng: SplitMix64::new(mix_seed(plan.seed, 0x6c69_6e6b)), // "link"
            dead: false,
            stalled: false,
            stats: FaultStats::default(),
        }
    }

    /// A link that never faults.
    pub fn clean() -> Self {
        FaultyLink::new(FaultPlan::clean())
    }

    /// `true` once the link has died (no more bytes will ever flow).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The injected-fault counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Draws the next per-mille decision in `0..1000`.
    fn roll(&mut self) -> u16 {
        self.rng.below(1000) as u16
    }

    /// Offers one encoded frame to the link and reports its fate.
    ///
    /// `frame` must be exactly one encoded frame (header + payload):
    /// drop decisions are per frame, and truncation cuts strictly
    /// inside the frame so a partial write is distinguishable from a
    /// clean drop.
    pub fn transmit(&mut self, frame: &[u8]) -> TransmitOutcome {
        self.stats.frames_offered += 1;
        if self.dead {
            return TransmitOutcome::Died {
                prefix: Bytes::new(),
                stalled: self.stalled,
            };
        }
        if let Some(limit) = self.plan.stall_after_frames {
            if self.stats.frames_offered > limit {
                self.dead = true;
                self.stalled = true;
                return TransmitOutcome::Died {
                    prefix: Bytes::new(),
                    stalled: true,
                };
            }
        }
        if let Some(limit) = self.plan.disconnect_after_bytes {
            let budget = limit.saturating_sub(self.stats.bytes_delivered);
            if budget < frame.len() as u64 {
                self.dead = true;
                let prefix = Bytes::copy_from_slice(&frame[..budget as usize]);
                self.stats.bytes_delivered += budget;
                if budget > 0 {
                    self.stats.frames_truncated += 1;
                }
                return TransmitOutcome::Died {
                    prefix,
                    stalled: false,
                };
            }
        }
        let roll = self.roll();
        if roll < self.plan.drop_per_mille {
            self.stats.frames_dropped += 1;
            return TransmitOutcome::Dropped;
        }
        if roll < self.plan.drop_per_mille + self.plan.truncate_per_mille {
            // Cut strictly inside the frame: at least 0, at most len-1
            // bytes make it out. (A 1-byte frame always truncates to
            // nothing — still a death, still detectable.)
            self.dead = true;
            let cut = self.rng.below(frame.len().max(1));
            let prefix = Bytes::copy_from_slice(&frame[..cut]);
            self.stats.bytes_delivered += cut as u64;
            self.stats.frames_truncated += 1;
            return TransmitOutcome::Died {
                prefix,
                stalled: false,
            };
        }
        self.stats.frames_delivered += 1;
        self.stats.bytes_delivered += frame.len() as u64;
        TransmitOutcome::Delivered(Bytes::copy_from_slice(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_link_is_transparent() {
        let mut link = FaultyLink::clean();
        for i in 0..100u8 {
            let frame = [i; 7];
            assert_eq!(
                link.transmit(&frame),
                TransmitOutcome::Delivered(Bytes::copy_from_slice(&frame))
            );
        }
        assert!(!link.is_dead());
        let stats = link.stats();
        assert_eq!(stats.frames_offered, 100);
        assert_eq!(stats.frames_delivered, 100);
        assert_eq!(stats.bytes_delivered, 700);
        assert_eq!(stats.frames_dropped, 0);
        assert_eq!(stats.frames_truncated, 0);
    }

    #[test]
    fn drop_rate_is_deterministic_and_plausible() {
        let run = |seed| {
            let mut link = FaultyLink::new(FaultPlan::dropping(seed, 100));
            let mut fates = Vec::new();
            for _ in 0..2000 {
                fates.push(matches!(link.transmit(&[0; 16]), TransmitOutcome::Dropped));
            }
            (fates, link.stats())
        };
        let (fates_a, stats_a) = run(42);
        let (fates_b, stats_b) = run(42);
        assert_eq!(fates_a, fates_b, "same seed, same fault schedule");
        assert_eq!(stats_a, stats_b);
        // 10% nominal over 2000 draws: accept a generous 6%..15% band.
        assert!(
            (120..=300).contains(&stats_a.frames_dropped),
            "dropped {} of 2000 at nominal 10%",
            stats_a.frames_dropped
        );
        let (fates_c, _) = run(43);
        assert_ne!(fates_a, fates_c, "different seed, different schedule");
    }

    #[test]
    fn truncation_kills_the_link_with_a_partial_frame() {
        let mut link = FaultyLink::new(FaultPlan {
            seed: 7,
            truncate_per_mille: 1000,
            ..FaultPlan::clean()
        });
        let frame = [0xabu8; 32];
        let TransmitOutcome::Died { prefix, stalled } = link.transmit(&frame) else {
            panic!("always-truncate plan must kill the first frame");
        };
        assert!(!stalled);
        assert!(prefix.len() < frame.len(), "cut is strictly inside");
        assert!(link.is_dead());
        assert_eq!(link.stats().frames_truncated, 1);
        // Dead links stay dead.
        assert_eq!(
            link.transmit(&frame),
            TransmitOutcome::Died {
                prefix: Bytes::new(),
                stalled: false
            }
        );
    }

    #[test]
    fn disconnect_cuts_at_the_exact_byte_offset() {
        for cut in 0..20u64 {
            let mut link = FaultyLink::new(FaultPlan::disconnect_at(cut));
            let mut delivered = Vec::new();
            loop {
                match link.transmit(&[0x55; 8]) {
                    TransmitOutcome::Delivered(b) => delivered.extend_from_slice(&b),
                    TransmitOutcome::Died { prefix, stalled } => {
                        assert!(!stalled);
                        delivered.extend_from_slice(&prefix);
                        break;
                    }
                    TransmitOutcome::Dropped => unreachable!(),
                }
            }
            assert_eq!(delivered.len() as u64, cut, "died at exactly {cut} bytes");
            assert_eq!(link.stats().bytes_delivered, cut);
        }
    }

    #[test]
    fn stall_goes_silent_after_the_frame_budget() {
        let mut link = FaultyLink::new(FaultPlan {
            stall_after_frames: Some(3),
            ..FaultPlan::clean()
        });
        for _ in 0..3 {
            assert!(matches!(
                link.transmit(&[1, 2, 3]),
                TransmitOutcome::Delivered(_)
            ));
        }
        assert_eq!(
            link.transmit(&[1, 2, 3]),
            TransmitOutcome::Died {
                prefix: Bytes::new(),
                stalled: true
            }
        );
        assert!(link.is_dead());
    }

    #[test]
    fn reseeded_plans_differ_but_are_stable() {
        let plan = FaultPlan::dropping(9, 500);
        let a = plan.reseeded(1);
        let b = plan.reseeded(1);
        let c = plan.reseeded(2);
        assert_eq!(a, b);
        assert_ne!(a.seed, c.seed);
        assert_eq!(a.drop_per_mille, plan.drop_per_mille);
    }
}
