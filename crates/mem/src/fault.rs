//! Deterministic fault rolls for the injection layer.
//!
//! Every fault decision in the simulator is a *pure function* of
//! `(seed, site, key)` — there is no shared RNG state. This is what makes
//! fault schedules reproducible: a roll depends only on a stable
//! identifier (per-MFC command index, message stamp, per-DSE request
//! counter), never on how the host happened to advance time, and no
//! code path can shift a later roll by consuming "extra" random numbers.
//!
//! Rates are expressed in parts-per-million so configuration stays
//! integer-only (and therefore `Eq`/hashable).

/// Site salt: per-attempt transient DMA command failure.
pub const SITE_DMA_FAIL: u64 = 0x444D_4146; // "DMAF"
/// Site salt: permanent DMA command stall.
pub const SITE_DMA_STALL: u64 = 0x444D_4153; // "DMAS"
/// Site salt: protocol message drop (recovered by re-send).
pub const SITE_MSG_DROP: u64 = 0x4D53_4744; // "MSGD"
/// Site salt: protocol message duplication.
pub const SITE_MSG_DUP: u64 = 0x4D53_4755; // "MSGU"
/// Site salt: protocol message delay.
pub const SITE_MSG_DELAY: u64 = 0x4D53_474C; // "MSGL"
/// Site salt: FALLOC arbitration denial (simulated frame exhaustion).
pub const SITE_FALLOC_DENY: u64 = 0x4641_4C44; // "FALD"
/// Site salt: per-node DSE crash (silences the node's scheduler at a
/// planned cycle; recovered by deterministic failover to a live peer).
pub const SITE_DSE_CRASH: u64 = 0x4453_4543; // "DSEC"
/// Site salt: per-PE LSE crash (kills a single PE's scheduler while its
/// node's DSE survives; recovered by frame evacuation / re-admission to a
/// live same-node peer LSE).
pub const SITE_LSE_CRASH: u64 = 0x4C53_4543; // "LSEC"

/// SplitMix64 finaliser: a high-quality 64-bit avalanche mix.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Stateless Bernoulli roll: does the fault at `site` fire for `key`?
///
/// `ppm` is the firing probability in parts-per-million (0 = never,
/// 1_000_000 = always).
#[inline]
pub fn roll(seed: u64, site: u64, key: u64, ppm: u32) -> bool {
    if ppm == 0 {
        return false;
    }
    if ppm >= 1_000_000 {
        return true;
    }
    mix64(mix64(seed ^ site).wrapping_add(key)) % 1_000_000 < ppm as u64
}

/// Per-MFC DMA fault configuration (derived from the system-level fault
/// plan; `salt` distinguishes PEs so each engine rolls its own schedule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DmaFaultPlan {
    /// Global fault seed.
    pub seed: u64,
    /// Per-MFC salt (the global PE index).
    pub salt: u64,
    /// Per-attempt transient failure probability (ppm).
    pub fail_ppm: u32,
    /// Per-command permanent stall probability (ppm).
    pub stall_ppm: u32,
    /// Maximum retries after the first attempt before the engine gives up
    /// and escalates (marking the PE degraded).
    pub retry_budget: u32,
    /// Backoff after the first failed attempt, in cycles; doubles per
    /// retry (exponential backoff).
    pub backoff_base: u64,
}

/// The fully resolved outcome of one DMA command under a fault plan,
/// computed when the MFC accepts the command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DmaPlan {
    /// Engine attempts this command will consume (1 = clean first try).
    pub attempts: u32,
    /// Total backoff cycles added to the command's processing time.
    pub penalty: u64,
    /// The retry budget ran out; the transfer still completes via the
    /// fail-safe slow path but the owning PE must be marked degraded.
    pub exhausted: bool,
    /// The command is stuck forever: data never moves and no completion
    /// is ever delivered (the watchdog converts this into a typed error).
    pub stalled: bool,
}

impl DmaPlan {
    /// The fault-free outcome.
    pub const CLEAN: DmaPlan = DmaPlan {
        attempts: 1,
        penalty: 0,
        exhausted: false,
        stalled: false,
    };
}

impl DmaFaultPlan {
    /// Resolves the outcome for the `cmd_index`-th admitted command of
    /// this MFC. Pure: depends only on the plan and the index.
    pub fn plan(&self, cmd_index: u64) -> DmaPlan {
        let base = (self.salt << 40) ^ cmd_index;
        if roll(self.seed, SITE_DMA_STALL, base, self.stall_ppm) {
            return DmaPlan {
                attempts: 1,
                penalty: 0,
                exhausted: false,
                stalled: true,
            };
        }
        let mut attempts: u32 = 1;
        let mut penalty: u64 = 0;
        loop {
            let key = (self.salt << 40) ^ (cmd_index << 8) ^ (attempts - 1) as u64;
            if !roll(self.seed, SITE_DMA_FAIL, key, self.fail_ppm) {
                return DmaPlan {
                    attempts,
                    penalty,
                    exhausted: false,
                    stalled: false,
                };
            }
            if attempts > self.retry_budget {
                return DmaPlan {
                    attempts,
                    penalty,
                    exhausted: true,
                    stalled: false,
                };
            }
            penalty += self.backoff_base << (attempts - 1).min(16);
            attempts += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roll_is_pure_and_seed_sensitive() {
        let a = roll(1, SITE_DMA_FAIL, 42, 500_000);
        assert_eq!(a, roll(1, SITE_DMA_FAIL, 42, 500_000));
        // Over many keys, different seeds must disagree somewhere.
        let diff = (0..1000u64)
            .filter(|&k| roll(1, SITE_DMA_FAIL, k, 500_000) != roll(2, SITE_DMA_FAIL, k, 500_000))
            .count();
        assert!(diff > 0);
    }

    #[test]
    fn roll_edges() {
        assert!(!roll(7, SITE_MSG_DROP, 3, 0));
        assert!(roll(7, SITE_MSG_DROP, 3, 1_000_000));
    }

    #[test]
    fn roll_rate_is_roughly_honoured() {
        let hits = (0..100_000u64)
            .filter(|&k| roll(9, SITE_MSG_DELAY, k, 100_000))
            .count();
        // 10% +- 1.5%.
        assert!((8_500..=11_500).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn always_fail_exhausts_at_budget() {
        let p = DmaFaultPlan {
            seed: 1,
            salt: 0,
            fail_ppm: 1_000_000,
            stall_ppm: 0,
            retry_budget: 3,
            backoff_base: 64,
        };
        let out = p.plan(0);
        assert!(out.exhausted);
        assert!(!out.stalled);
        assert_eq!(out.attempts, 4); // first try + 3 retries
        assert_eq!(out.penalty, 64 + 128 + 256);
    }

    #[test]
    fn never_fail_is_clean() {
        let p = DmaFaultPlan {
            seed: 1,
            salt: 5,
            fail_ppm: 0,
            stall_ppm: 0,
            retry_budget: 3,
            backoff_base: 64,
        };
        assert_eq!(p.plan(123), DmaPlan::CLEAN);
    }

    #[test]
    fn plans_differ_across_salts_but_replay_identically() {
        let mk = |salt| DmaFaultPlan {
            seed: 0xABCD,
            salt,
            fail_ppm: 300_000,
            stall_ppm: 10_000,
            retry_budget: 4,
            backoff_base: 32,
        };
        let a: Vec<_> = (0..256).map(|i| mk(0).plan(i)).collect();
        let b: Vec<_> = (0..256).map(|i| mk(1).plan(i)).collect();
        assert_ne!(a, b);
        let a2: Vec<_> = (0..256).map(|i| mk(0).plan(i)).collect();
        assert_eq!(a, a2);
    }
}
