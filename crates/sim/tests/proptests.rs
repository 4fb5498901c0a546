//! Property-based tests for the simulation kernel invariants.

use lobster_sim::{Scheduler, SimTime, SimWorld, Xoshiro256StarStar};
use proptest::prelude::*;

proptest! {
    /// Fisher–Yates shuffle always yields a permutation of its input.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), len in 0usize..512) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut v: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }

    /// `below(bound)` is always strictly below its bound.
    #[test]
    fn below_respects_bound(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// Same seed ⇒ same stream; the generator is pure state.
    #[test]
    fn rng_reproducible(seed in any::<u64>()) {
        let mut a = Xoshiro256StarStar::seed_from_u64(seed);
        let mut b = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

/// Events with identical timestamps fire in submission order no matter how
/// they were interleaved with earlier/later times.
#[derive(Default)]
struct OrderWorld {
    fired: Vec<u32>,
}

impl SimWorld for OrderWorld {
    type Event = u32;
    fn handle(&mut self, e: u32, _s: &mut Scheduler<u32>) {
        self.fired.push(e);
    }
}

proptest! {
    #[test]
    fn same_time_events_fire_fifo(times in proptest::collection::vec(0u64..100, 1..128)) {
        let mut sched = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            sched.at(SimTime(t), i as u32);
        }
        let mut world = OrderWorld::default();
        lobster_sim::run(&mut world, &mut sched, None, 1_000_000);
        // Expected order: stable sort by time.
        let mut expected: Vec<(u64, u32)> =
            times.iter().enumerate().map(|(i, &t)| (t, i as u32)).collect();
        expected.sort_by_key(|&(t, _)| t);
        let expected: Vec<u32> = expected.into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(world.fired, expected);
    }
}
