//! A minimal, deterministic discrete-event engine.
//!
//! The engine is deliberately small: a time-ordered queue of typed events and
//! a [`SimWorld`] trait the embedding system implements. Events scheduled for
//! the same instant fire in insertion order (a monotonically increasing
//! sequence number breaks ties), which makes every run bit-for-bit
//! reproducible regardless of heap internals.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event plus its firing time and tie-breaking sequence number.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The event queue handed to [`SimWorld::handle`] so handlers can schedule
/// follow-up events.
#[derive(Debug)]
pub struct Scheduler<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time (the firing time of the event being handled).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error; we clamp to `now` so the event still fires (and order is
    /// preserved), but debug builds assert.
    pub fn at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            event,
        }));
    }

    /// Schedule `event` after a delay relative to the current time.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            event,
        }));
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        let Reverse(s) = self.heap.pop()?;
        self.now = s.at;
        Some(s)
    }
}

/// The embedding system: owns all state and reacts to events.
pub trait SimWorld {
    type Event;

    /// Handle one event at time `sched.now()`. May schedule more events.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Number of events processed.
    pub events: u64,
    /// Simulated time of the last processed event.
    pub end_time: SimTime,
    /// True if the run stopped because the event limit was hit rather than
    /// the queue draining (indicates a runaway model).
    pub truncated: bool,
}

/// Drive `world` until the event queue drains, `until` (if given) is passed,
/// or `max_events` events have been processed.
pub fn run<W: SimWorld>(
    world: &mut W,
    sched: &mut Scheduler<W::Event>,
    until: Option<SimTime>,
    max_events: u64,
) -> RunStats {
    let mut events = 0u64;
    while let Some(&Reverse(Scheduled { at, .. })) = sched.heap.peek() {
        if let Some(limit) = until {
            if at > limit {
                break;
            }
        }
        if events >= max_events {
            return RunStats {
                events,
                end_time: sched.now,
                truncated: true,
            };
        }
        let s = sched.pop().expect("peeked event vanished");
        world.handle(s.event, sched);
        events += 1;
    }
    RunStats {
        events,
        end_time: sched.now,
        truncated: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that records firing order and chains a fixed number of events.
    struct Recorder {
        fired: Vec<(u64, u32)>,
        chain_left: u32,
    }

    #[derive(Debug)]
    enum Ev {
        Tag(u32),
        Chain,
    }

    impl SimWorld for Recorder {
        type Event = Ev;
        fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
            match event {
                Ev::Tag(t) => self.fired.push((sched.now().as_nanos(), t)),
                Ev::Chain => {
                    if self.chain_left > 0 {
                        self.chain_left -= 1;
                        sched.after(SimDuration::from_nanos(10), Ev::Chain);
                    }
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order_with_fifo_ties() {
        let mut w = Recorder {
            fired: vec![],
            chain_left: 0,
        };
        let mut s = Scheduler::new();
        s.at(SimTime(30), Ev::Tag(3));
        s.at(SimTime(10), Ev::Tag(1));
        s.at(SimTime(20), Ev::Tag(2));
        // Two events at the same instant keep insertion order.
        s.at(SimTime(20), Ev::Tag(4));
        let stats = run(&mut w, &mut s, None, 1000);
        assert_eq!(w.fired, vec![(10, 1), (20, 2), (20, 4), (30, 3)]);
        assert_eq!(stats.events, 4);
        assert!(!stats.truncated);
        assert_eq!(stats.end_time, SimTime(30));
    }

    #[test]
    fn chained_events_advance_time() {
        let mut w = Recorder {
            fired: vec![],
            chain_left: 5,
        };
        let mut s = Scheduler::new();
        s.at(SimTime::ZERO, Ev::Chain);
        let stats = run(&mut w, &mut s, None, 1000);
        assert_eq!(stats.events, 6); // initial + 5 chained
        assert_eq!(stats.end_time, SimTime(50));
    }

    #[test]
    fn until_bound_stops_early_but_keeps_queue() {
        let mut w = Recorder {
            fired: vec![],
            chain_left: 0,
        };
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.at(SimTime(i * 100), Ev::Tag(i as u32));
        }
        let stats = run(&mut w, &mut s, Some(SimTime(450)), 1000);
        assert_eq!(stats.events, 5);
        assert_eq!(s.pending(), 5);
        // Resume picks up where we left off.
        let stats2 = run(&mut w, &mut s, None, 1000);
        assert_eq!(stats2.events, 5);
        assert_eq!(w.fired.len(), 10);
    }

    #[test]
    fn max_events_truncates_runaway_models() {
        let mut w = Recorder {
            fired: vec![],
            chain_left: u32::MAX,
        };
        let mut s = Scheduler::new();
        s.at(SimTime::ZERO, Ev::Chain);
        let stats = run(&mut w, &mut s, None, 100);
        assert!(stats.truncated);
        assert_eq!(stats.events, 100);
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        struct PastWorld {
            second_fired_at: Option<SimTime>,
        }
        #[derive(Debug)]
        enum E2 {
            First,
            Second,
        }
        impl SimWorld for PastWorld {
            type Event = E2;
            fn handle(&mut self, e: E2, s: &mut Scheduler<E2>) {
                match e {
                    E2::First => {
                        // In release builds this clamps rather than panicking.
                        if cfg!(not(debug_assertions)) {
                            s.at(SimTime::ZERO, E2::Second);
                        } else {
                            s.at(s.now(), E2::Second);
                        }
                    }
                    E2::Second => self.second_fired_at = Some(s.now()),
                }
            }
        }
        let mut w = PastWorld {
            second_fired_at: None,
        };
        let mut s = Scheduler::new();
        s.at(SimTime(100), E2::First);
        run(&mut w, &mut s, None, 10);
        assert_eq!(w.second_fired_at, Some(SimTime(100)));
    }
}
