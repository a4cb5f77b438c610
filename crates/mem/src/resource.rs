//! Deterministic resource reservation.
//!
//! A [`ResourcePool`] models a bank of identical channels (bus lanes,
//! memory ports, LS ports). A request reserves the earliest-available
//! channel for a duration; ties break toward the lowest channel index, so
//! simulation outcomes are fully deterministic.

/// The outcome of a reservation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Reservation {
    /// Channel that was claimed.
    pub channel: usize,
    /// First cycle of occupancy.
    pub start: u64,
    /// First cycle *after* the occupancy ends.
    pub end: u64,
}

impl Reservation {
    /// Cycles spent waiting for the channel (queueing delay).
    #[inline]
    pub fn wait(&self, now: u64) -> u64 {
        self.start - now
    }
}

/// A bank of identical, serially-occupied channels.
#[derive(Clone, Debug)]
pub struct ResourcePool {
    free_at: Vec<u64>,
    /// Total busy cycles accumulated (for utilisation stats).
    busy_cycles: u64,
}

impl ResourcePool {
    /// A pool of `channels` channels, all free at cycle 0.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "resource pool needs at least one channel");
        ResourcePool {
            free_at: vec![0; channels],
            busy_cycles: 0,
        }
    }

    /// Number of channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.free_at.len()
    }

    /// Reserves the earliest-available channel for `duration` cycles,
    /// starting no earlier than `now`. `duration` of 0 is treated as 1
    /// (every transaction occupies its channel for at least a cycle).
    pub fn reserve(&mut self, now: u64, duration: u64) -> Reservation {
        let duration = duration.max(1);
        // First strict minimum: a later channel wins only when it is
        // free strictly earlier, so ties go to the lowest index.
        let mut channel = 0;
        let mut free = self.free_at[0];
        for (i, &t) in self.free_at.iter().enumerate().skip(1) {
            if t < free {
                channel = i;
                free = t;
            }
        }
        let start = free.max(now);
        let end = start + duration;
        self.free_at[channel] = end;
        self.busy_cycles += duration;
        Reservation {
            channel,
            start,
            end,
        }
    }

    /// The earliest cycle at which any channel is free.
    pub fn earliest_free(&self) -> u64 {
        self.free_at.iter().copied().min().unwrap_or(0)
    }

    /// Total busy cycles accumulated across all channels.
    #[inline]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Utilisation in `[0, 1]` over the first `elapsed` cycles.
    pub fn utilisation(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / (elapsed as f64 * self.free_at.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_channel_serialises() {
        let mut p = ResourcePool::new(1);
        let a = p.reserve(0, 10);
        let b = p.reserve(0, 5);
        assert_eq!(
            a,
            Reservation {
                channel: 0,
                start: 0,
                end: 10
            }
        );
        assert_eq!(
            b,
            Reservation {
                channel: 0,
                start: 10,
                end: 15
            }
        );
        assert_eq!(b.wait(0), 10);
    }

    #[test]
    fn multiple_channels_run_in_parallel() {
        let mut p = ResourcePool::new(2);
        let a = p.reserve(0, 10);
        let b = p.reserve(0, 10);
        let c = p.reserve(0, 10);
        assert_eq!(a.channel, 0);
        assert_eq!(b.channel, 1);
        assert_eq!((a.start, b.start), (0, 0));
        // Third request queues behind the earliest-free channel (0).
        assert_eq!(
            c,
            Reservation {
                channel: 0,
                start: 10,
                end: 20
            }
        );
    }

    #[test]
    fn reservation_never_starts_before_now() {
        let mut p = ResourcePool::new(1);
        let a = p.reserve(100, 4);
        assert_eq!(a.start, 100);
        // Channel went idle between 104 and 200; next request at 200 does
        // not start earlier.
        let b = p.reserve(200, 4);
        assert_eq!(b.start, 200);
    }

    #[test]
    fn zero_duration_clamped_to_one() {
        let mut p = ResourcePool::new(1);
        let a = p.reserve(0, 0);
        assert_eq!(a.end - a.start, 1);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut p1 = ResourcePool::new(4);
        let mut p2 = ResourcePool::new(4);
        let seq1: Vec<_> = (0..16).map(|i| p1.reserve(i / 4, 3).channel).collect();
        let seq2: Vec<_> = (0..16).map(|i| p2.reserve(i / 4, 3).channel).collect();
        assert_eq!(seq1, seq2);
    }

    #[test]
    fn utilisation_accounting() {
        let mut p = ResourcePool::new(2);
        p.reserve(0, 10);
        p.reserve(0, 10);
        assert_eq!(p.busy_cycles(), 20);
        assert!((p.utilisation(10) - 1.0).abs() < 1e-9);
        assert!((p.utilisation(20) - 0.5).abs() < 1e-9);
        assert_eq!(p.utilisation(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn empty_pool_rejected() {
        let _ = ResourcePool::new(0);
    }
}
