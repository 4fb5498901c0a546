//! Deterministic, seeded fault injection shared by the live runtime and the
//! cluster simulator (DESIGN.md §8 "Fault model & recovery").
//!
//! The paper's claim is that load-balance-aware thread assignment absorbs
//! stragglers and uneven I/O cost; exercising that claim requires faults
//! that are *reproducible*. A [`FaultSpec`] describes rates for four fault
//! classes — transient fetch errors, fetch stalls, payload corruption, and
//! injected worker panics ("poison") — plus per-node time-varying slowdown
//! profiles. [`FaultSpec::compile`] turns it into a [`FaultPlan`] whose
//! per-`(node, fetch_index)` schedule is a pure function of the seed: two
//! compilations of the same spec agree on every draw, so any run under
//! injection can be replayed exactly.
//!
//! [`RetryPolicy`] is the recovery side: bounded retries with exponential
//! backoff and decorrelated jitter, clamped so cumulative sleep never
//! exceeds the per-fetch deadline (property-tested).

use lobster_sim::{derive_seed, derive_seed2, SplitMix64};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// A per-node I/O slowdown as a function of run time, multiplying every
/// load/transfer duration on that node. All factors are ≥ 1 (1 = nominal).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SlowdownProfile {
    /// The static slow-node fault of `lobster_figures ext_robustness`.
    Constant(f64),
    /// Nominal until `at_s`, then `factor` forever — a node degrading
    /// mid-run (disk rebuild, noisy neighbour arriving).
    Step { at_s: f64, factor: f64 },
    /// Square wave: `hi` during the first half of every `period_s` window,
    /// `lo` during the second — a flapping link or a periodic scrub.
    Flap { period_s: f64, lo: f64, hi: f64 },
    /// Linear ramp from `from` at t=0 to `to` at `over_s`, then `to` —
    /// gradual contention build-up.
    Ramp { from: f64, to: f64, over_s: f64 },
}

impl SlowdownProfile {
    /// Nominal speed at all times.
    pub const NOMINAL: SlowdownProfile = SlowdownProfile::Constant(1.0);

    /// The slowdown multiplier at `t_s` seconds into the run.
    pub fn factor_at(&self, t_s: f64) -> f64 {
        match *self {
            SlowdownProfile::Constant(f) => f,
            SlowdownProfile::Step { at_s, factor } => {
                if t_s >= at_s {
                    factor
                } else {
                    1.0
                }
            }
            SlowdownProfile::Flap { period_s, lo, hi } => {
                let phase = (t_s / period_s).rem_euclid(1.0);
                if phase < 0.5 {
                    hi
                } else {
                    lo
                }
            }
            SlowdownProfile::Ramp { from, to, over_s } => {
                let x = (t_s / over_s).clamp(0.0, 1.0);
                from + (to - from) * x
            }
        }
    }

    /// The largest factor the profile ever reaches (for reporting).
    pub fn peak(&self) -> f64 {
        match *self {
            SlowdownProfile::Constant(f) => f,
            SlowdownProfile::Step { factor, .. } => factor.max(1.0),
            SlowdownProfile::Flap { lo, hi, .. } => lo.max(hi),
            SlowdownProfile::Ramp { from, to, .. } => from.max(to),
        }
    }

    /// Check that every factor is finite and ≥ 1 and every duration positive.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        let bad = |what: &str, v: f64| FaultConfigError::InvalidProfile {
            what: what.to_string(),
            value: v,
        };
        let factor_ok = |what: &str, f: f64| -> Result<(), FaultConfigError> {
            if f.is_finite() && f >= 1.0 {
                Ok(())
            } else {
                Err(bad(what, f))
            }
        };
        match *self {
            SlowdownProfile::Constant(f) => factor_ok("constant factor", f),
            SlowdownProfile::Step { at_s, factor } => {
                factor_ok("step factor", factor)?;
                if at_s.is_finite() && at_s >= 0.0 {
                    Ok(())
                } else {
                    Err(bad("step time", at_s))
                }
            }
            SlowdownProfile::Flap { period_s, lo, hi } => {
                factor_ok("flap lo", lo)?;
                factor_ok("flap hi", hi)?;
                if period_s.is_finite() && period_s > 0.0 {
                    Ok(())
                } else {
                    Err(bad("flap period", period_s))
                }
            }
            SlowdownProfile::Ramp { from, to, over_s } => {
                factor_ok("ramp from", from)?;
                factor_ok("ramp to", to)?;
                if over_s.is_finite() && over_s > 0.0 {
                    Ok(())
                } else {
                    Err(bad("ramp duration", over_s))
                }
            }
        }
    }

    /// A vector of constant profiles — the shape every pre-existing
    /// `node_slowdown: Vec<f64>` call site wants.
    pub fn constants(factors: &[f64]) -> Vec<SlowdownProfile> {
        factors
            .iter()
            .map(|&f| SlowdownProfile::Constant(f))
            .collect()
    }
}

/// What the injector does to one fetch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Serve normally.
    None,
    /// Fail the request after the round-trip latency (a dropped RPC, an
    /// `EIO` that a re-read clears).
    TransientError,
    /// Serve, but only after an extra stall of the given duration (a hung
    /// OST, a congested metadata server) — recoverable via deadline +
    /// refetch.
    Stall(Duration),
    /// Serve bytes with one flipped bit-pattern (a torn read, bad DMA) —
    /// recoverable via checksum verification + refetch.
    Corrupt,
    /// Panic inside the fetch path (a crashed worker) — recoverable via
    /// the engine's poisoned-worker containment.
    Poison,
    /// The peer node this fetch was routed to is down — the request must
    /// fail fast (`FetchError::PeerDown`) and fail over to the PFS instead
    /// of burning retry rounds.
    NodeCrash,
    /// The peer has rejoined with a cold cache; serve from PFS while its
    /// directory warms up. Distinguished from `None` so callers can
    /// attribute the extra PFS traffic of a warm-up phase.
    NodeRejoin,
}

/// How a node's cluster membership changed at a tick boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MembershipTransition {
    /// The node crashed: cache lost, directory entries purged, its schedule
    /// slice re-sharded across survivors.
    Crashed,
    /// The node rejoined with a cold cache and begins directory warm-up.
    Rejoined,
}

impl MembershipTransition {
    pub fn label(self) -> &'static str {
        match self {
            MembershipTransition::Crashed => "crashed",
            MembershipTransition::Rejoined => "rejoined",
        }
    }
}

/// One scheduled whole-node crash, with an optional rejoin. Tick-indexed
/// (a tick is one global training iteration), so the membership timeline
/// is a pure function of configuration — every executor sees the same
/// transitions at the same iterations regardless of wall-clock timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// Node that crashes.
    pub node: u32,
    /// Global iteration at whose boundary the crash lands (the node misses
    /// this iteration and every one after, until rejoin).
    pub tick: u64,
    /// Global iteration at whose boundary the node rejoins with a cold
    /// cache; `None` = the node never comes back.
    pub rejoin: Option<u64>,
}

/// One membership transition on the deterministic timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembershipEvent {
    /// Tick (global iteration) at whose boundary the transition applies.
    pub tick: u64,
    pub node: u32,
    pub transition: MembershipTransition,
}

/// Errors from validating or parsing a fault configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultConfigError {
    /// A rate outside `[0, 1)`.
    InvalidRate { what: String, value: f64 },
    /// A slowdown profile with a factor < 1 or a non-positive duration.
    InvalidProfile { what: String, value: f64 },
    /// A crash/rejoin schedule that is not well-formed (rejoin ≤ crash
    /// tick, node ≥ 64, or overlapping down-windows for one node).
    InvalidCrash { what: String },
    /// An unparseable `--faults` spec fragment.
    Parse(String),
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultConfigError::InvalidRate { what, value } => {
                write!(f, "fault rate `{what}` must be in [0, 1): got {value}")
            }
            FaultConfigError::InvalidProfile { what, value } => {
                write!(f, "slowdown profile {what} invalid: {value} (factors must be finite and >= 1, durations positive)")
            }
            FaultConfigError::InvalidCrash { what } => {
                write!(f, "crash schedule invalid: {what}")
            }
            FaultConfigError::Parse(msg) => write!(f, "cannot parse fault spec: {msg}"),
        }
    }
}

impl std::error::Error for FaultConfigError {}

/// The complete fault configuration for one run. All rates default to zero
/// (no faults); `Default` is the no-op spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Probability a fetch attempt fails transiently.
    pub transient_rate: f64,
    /// Probability a fetch attempt stalls for [`FaultSpec::stall`].
    pub stall_rate: f64,
    /// How long an injected stall lasts.
    pub stall: Duration,
    /// Probability a served payload is corrupted.
    pub corrupt_rate: f64,
    /// Probability a fetch attempt panics the worker thread.
    pub poison_rate: f64,
    /// Per-node slowdown profiles (missing entries = nominal).
    pub slowdown: Vec<SlowdownProfile>,
    /// Scheduled whole-node crashes (and rejoins), tick-indexed.
    pub crashes: Vec<CrashSpec>,
    /// Seed of the whole schedule; same seed ⇒ same schedule.
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            transient_rate: 0.0,
            stall_rate: 0.0,
            stall: Duration::from_millis(100),
            corrupt_rate: 0.0,
            poison_rate: 0.0,
            slowdown: Vec::new(),
            crashes: Vec::new(),
            seed: 0,
        }
    }
}

impl FaultSpec {
    /// True when the spec can never inject anything.
    pub fn is_noop(&self) -> bool {
        self.transient_rate == 0.0
            && self.stall_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.poison_rate == 0.0
            && self.slowdown.iter().all(|p| *p == SlowdownProfile::NOMINAL)
            && self.crashes.is_empty()
    }

    /// Validate all rates and profiles.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        let rate_ok = |what: &str, r: f64| -> Result<(), FaultConfigError> {
            // Strictly below 1: a rate of 1.0 would make recovery-by-retry
            // impossible by construction.
            if r.is_finite() && (0.0..1.0).contains(&r) {
                Ok(())
            } else {
                Err(FaultConfigError::InvalidRate {
                    what: what.to_string(),
                    value: r,
                })
            }
        };
        rate_ok("transient", self.transient_rate)?;
        rate_ok("stall", self.stall_rate)?;
        rate_ok("corrupt", self.corrupt_rate)?;
        rate_ok("poison", self.poison_rate)?;
        for p in &self.slowdown {
            p.validate()?;
        }
        let crash_err = |what: String| FaultConfigError::InvalidCrash { what };
        for c in &self.crashes {
            if c.node as usize >= 64 {
                return Err(crash_err(format!(
                    "node {} exceeds the 64-node membership mask",
                    c.node
                )));
            }
            if let Some(r) = c.rejoin {
                if r <= c.tick {
                    return Err(crash_err(format!(
                        "node {} rejoin tick {r} must be after crash tick {}",
                        c.node, c.tick
                    )));
                }
            }
        }
        // Per-node down-windows must not overlap: a node cannot crash
        // again before it rejoined.
        let mut windows: Vec<(u32, u64, Option<u64>)> = self
            .crashes
            .iter()
            .map(|c| (c.node, c.tick, c.rejoin))
            .collect();
        windows.sort();
        for w in windows.windows(2) {
            let (node_a, tick_a, rejoin_a) = w[0];
            let (node_b, tick_b, _) = w[1];
            if node_a == node_b && rejoin_a.is_none_or(|r| tick_b < r) {
                return Err(crash_err(format!(
                    "node {node_a} crashes at tick {tick_b} while already down since {tick_a}"
                )));
            }
        }
        Ok(())
    }

    /// Compile into a replayable [`FaultPlan`].
    pub fn compile(&self) -> Result<FaultPlan, FaultConfigError> {
        self.validate()?;
        Ok(FaultPlan {
            // Independent sub-seeds per fault class so that e.g. raising
            // the transient rate does not reshuffle which fetches corrupt.
            transient_seed: derive_seed(self.seed, 0x7472_616E), // "tran"
            stall_seed: derive_seed(self.seed, 0x7374_616C),     // "stal"
            corrupt_seed: derive_seed(self.seed, 0x636F_7272),   // "corr"
            poison_seed: derive_seed(self.seed, 0x706F_6973),    // "pois"
            spec: self.clone(),
        })
    }

    /// Parse a `--faults` CLI spec: comma-separated `key=value` pairs.
    ///
    /// Keys: `transient`, `stall`, `corrupt`, `poison` (rates in `[0,1)`),
    /// `stall-ms` (stall length), `seed`, and `slow=<node>:<profile>` where
    /// profile is `const:<f>`, `step:<f>:<at_s>`, `flap:<lo>:<hi>:<period_s>`
    /// or `ramp:<from>:<to>:<over_s>`. `slow` may repeat for several nodes.
    ///
    /// Whole-node crashes use `crash@<tick>:node=<n>[,rejoin=<tick>]`: the
    /// node goes down at the boundary of global iteration `<tick>` and (if
    /// `rejoin` follows) comes back with a cold cache at the rejoin tick.
    /// A `rejoin` term attaches to the immediately preceding `crash` term;
    /// `crash` may repeat for several nodes.
    ///
    /// Example: `transient=0.05,corrupt=0.01,stall=0.02,stall-ms=50,seed=7,slow=2:step:2.5:40`
    /// or `crash@6:node=1,rejoin=12,seed=7`
    pub fn parse(s: &str) -> Result<FaultSpec, FaultConfigError> {
        let mut spec = FaultSpec::default();
        let err = |msg: String| FaultConfigError::Parse(msg);
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| err(format!("`{part}` is not key=value")))?;
            let fval = |v: &str| -> Result<f64, FaultConfigError> {
                v.parse::<f64>()
                    .map_err(|_| err(format!("`{v}` is not a number (in `{part}`)")))
            };
            match key.trim() {
                "transient" => spec.transient_rate = fval(value)?,
                "stall" => spec.stall_rate = fval(value)?,
                "corrupt" => spec.corrupt_rate = fval(value)?,
                "poison" => spec.poison_rate = fval(value)?,
                "stall-ms" => spec.stall = Duration::from_secs_f64(fval(value)? / 1e3),
                "seed" => {
                    spec.seed = value
                        .parse::<u64>()
                        .map_err(|_| err(format!("`{value}` is not a u64 seed")))?
                }
                "slow" => {
                    let fields: Vec<&str> = value.split(':').collect();
                    let node: usize = fields
                        .first()
                        .and_then(|n| n.parse().ok())
                        .ok_or_else(|| err(format!("`{value}` must start with a node index")))?;
                    let profile = match fields.get(1).copied() {
                        Some("const") if fields.len() == 3 => {
                            SlowdownProfile::Constant(fval(fields[2])?)
                        }
                        Some("step") if fields.len() == 4 => SlowdownProfile::Step {
                            factor: fval(fields[2])?,
                            at_s: fval(fields[3])?,
                        },
                        Some("flap") if fields.len() == 5 => SlowdownProfile::Flap {
                            lo: fval(fields[2])?,
                            hi: fval(fields[3])?,
                            period_s: fval(fields[4])?,
                        },
                        Some("ramp") if fields.len() == 5 => SlowdownProfile::Ramp {
                            from: fval(fields[2])?,
                            to: fval(fields[3])?,
                            over_s: fval(fields[4])?,
                        },
                        _ => {
                            return Err(err(format!(
                                "`{value}` is not node:const:<f> | node:step:<f>:<at_s> | \
                                 node:flap:<lo>:<hi>:<period_s> | node:ramp:<from>:<to>:<over_s>"
                            )))
                        }
                    };
                    if spec.slowdown.len() <= node {
                        spec.slowdown.resize(node + 1, SlowdownProfile::NOMINAL);
                    }
                    spec.slowdown[node] = profile;
                }
                "rejoin" => {
                    let tick: u64 = value
                        .parse()
                        .map_err(|_| err(format!("`{value}` is not a u64 rejoin tick")))?;
                    let last = spec.crashes.last_mut().ok_or_else(|| {
                        err("`rejoin` must follow a `crash@<tick>:node=<n>` term".to_string())
                    })?;
                    if last.rejoin.is_some() {
                        return Err(err(format!(
                            "duplicate `rejoin` for the crash of node {}",
                            last.node
                        )));
                    }
                    last.rejoin = Some(tick);
                }
                crash if crash.starts_with("crash@") => {
                    // `crash@<tick>:node` is the key half of
                    // `crash@<tick>:node=<n>`.
                    let rest = &crash["crash@".len()..];
                    let (tick_str, node_key) = rest
                        .split_once(':')
                        .ok_or_else(|| err(format!("`{part}` is not crash@<tick>:node=<n>")))?;
                    if node_key != "node" {
                        return Err(err(format!("`{part}` is not crash@<tick>:node=<n>")));
                    }
                    let tick: u64 = tick_str
                        .parse()
                        .map_err(|_| err(format!("`{tick_str}` is not a u64 tick")))?;
                    let node: u32 = value
                        .parse()
                        .map_err(|_| err(format!("`{value}` is not a node index")))?;
                    spec.crashes.push(CrashSpec {
                        node,
                        tick,
                        rejoin: None,
                    });
                }
                other => return Err(err(format!("unknown key `{other}`"))),
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// A compiled, replayable fault schedule. [`FaultPlan::action`] is a pure
/// function of `(seed, node, fetch_index)` — no interior state — so two
/// plans compiled from the same spec agree everywhere, and a concurrent
/// engine consuming indices in any order still draws from one fixed
/// schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    transient_seed: u64,
    stall_seed: u64,
    corrupt_seed: u64,
    poison_seed: u64,
}

/// One uniform draw in `[0, 1)` for a `(seed, node, index)` coordinate.
fn draw(seed: u64, node: usize, index: u64) -> f64 {
    let bits = SplitMix64::new(derive_seed2(seed, node as u64, index)).next_u64();
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// The spec this plan was compiled from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// True when the plan can never inject anything.
    pub fn is_noop(&self) -> bool {
        self.spec.is_noop()
    }

    /// What happens to fetch attempt `fetch_index` on `node`. At most one
    /// fault class fires per attempt; poison wins over stall over transient
    /// over corrupt (each class draws independently, so changing one rate
    /// does not reshuffle the others).
    pub fn action(&self, node: usize, fetch_index: u64) -> FaultAction {
        if self.spec.poison_rate > 0.0
            && draw(self.poison_seed, node, fetch_index) < self.spec.poison_rate
        {
            return FaultAction::Poison;
        }
        if self.spec.stall_rate > 0.0
            && draw(self.stall_seed, node, fetch_index) < self.spec.stall_rate
        {
            return FaultAction::Stall(self.spec.stall);
        }
        if self.spec.transient_rate > 0.0
            && draw(self.transient_seed, node, fetch_index) < self.spec.transient_rate
        {
            return FaultAction::TransientError;
        }
        if self.spec.corrupt_rate > 0.0
            && draw(self.corrupt_seed, node, fetch_index) < self.spec.corrupt_rate
        {
            return FaultAction::Corrupt;
        }
        FaultAction::None
    }

    /// Slowdown multiplier for `node` at `t_s` seconds into the run.
    pub fn slowdown(&self, node: usize, t_s: f64) -> f64 {
        self.spec
            .slowdown
            .get(node)
            .map_or(1.0, |p| p.factor_at(t_s))
    }

    /// The configured crash schedule, verbatim.
    pub fn crashes(&self) -> &[CrashSpec] {
        &self.spec.crashes
    }

    /// True when the plan schedules at least one whole-node crash.
    pub fn has_crashes(&self) -> bool {
        !self.spec.crashes.is_empty()
    }

    /// Membership transitions landing at the boundary of `tick`, in a
    /// fixed deterministic order (rejoins before crashes, then by node).
    /// Every executor applies this same sequence at the same tick, which
    /// is what makes the membership timeline an exact-equality conformance
    /// observable.
    pub fn membership_events_at(&self, tick: u64) -> Vec<MembershipEvent> {
        let mut events: Vec<MembershipEvent> = Vec::new();
        for c in &self.spec.crashes {
            if c.rejoin == Some(tick) {
                events.push(MembershipEvent {
                    tick,
                    node: c.node,
                    transition: MembershipTransition::Rejoined,
                });
            }
            if c.tick == tick {
                events.push(MembershipEvent {
                    tick,
                    node: c.node,
                    transition: MembershipTransition::Crashed,
                });
            }
        }
        events.sort_by_key(|e| (e.transition == MembershipTransition::Crashed, e.node));
        events
    }

    /// The full membership timeline over `ticks` iterations, flattened in
    /// tick order — the reference sequence conformance compares against.
    pub fn membership_timeline(&self, ticks: u64) -> Vec<MembershipEvent> {
        (0..ticks)
            .flat_map(|t| self.membership_events_at(t))
            .collect()
    }

    /// Bitmask of nodes that are down *during* iteration `tick` (crashed at
    /// a tick ≤ this one and not yet rejoined).
    pub fn down_mask_at(&self, tick: u64) -> u64 {
        let mut mask = 0u64;
        for c in &self.spec.crashes {
            if c.tick <= tick && c.rejoin.is_none_or(|r| tick < r) {
                mask |= 1u64 << (c.node as usize % 64);
            }
        }
        mask
    }

    /// Is `node` down during iteration `tick`?
    pub fn node_down(&self, node: u32, tick: u64) -> bool {
        self.down_mask_at(tick) & (1u64 << (node as usize % 64)) != 0
    }

    /// Deterministic byte position to flip when corrupting a payload of
    /// `len` bytes at `fetch_index`.
    pub fn corrupt_position(&self, node: usize, fetch_index: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let bits = SplitMix64::new(derive_seed2(
            self.corrupt_seed ^ 0xF1,
            node as u64,
            fetch_index,
        ))
        .next_u64();
        (bits % len as u64) as usize
    }
}

/// Recovery parameters for one resilient fetch: bounded attempts with
/// exponential backoff + decorrelated jitter under a per-fetch deadline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts per deadline round (first try included).
    pub max_attempts: u32,
    /// First backoff delay.
    pub base: Duration,
    /// Backoff cap per delay.
    pub cap: Duration,
    /// Per-fetch deadline: one attempt round (tries + backoff sleeps) never
    /// spends longer than this before the caller escalates.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_micros(500),
            cap: Duration::from_millis(50),
            deadline: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The backoff delay sequence for one fetch, seeded so replays sleep
    /// identically. Guarantees: every delay ≤ `cap`, and the cumulative
    /// sleep never exceeds `deadline` (the final delay is clamped to the
    /// remainder; afterwards the schedule is exhausted).
    pub fn backoff(&self, seed: u64) -> BackoffSchedule {
        BackoffSchedule {
            rng: SplitMix64::new(derive_seed(seed, 0xB0FF)),
            policy: *self,
            prev: self.base,
            slept: Duration::ZERO,
            attempt: 0,
        }
    }
}

/// Iterator of backoff delays (see [`RetryPolicy::backoff`]). Decorrelated
/// jitter after AWS's "Exponential Backoff And Jitter": each delay is
/// uniform in `[base, 3 × previous]`, capped.
#[derive(Debug, Clone)]
pub struct BackoffSchedule {
    rng: SplitMix64,
    policy: RetryPolicy,
    prev: Duration,
    slept: Duration,
    attempt: u32,
}

impl Iterator for BackoffSchedule {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        // max_attempts tries ⇒ max_attempts − 1 sleeps between them.
        if self.attempt + 1 >= self.policy.max_attempts {
            return None;
        }
        let remaining = self.policy.deadline.checked_sub(self.slept)?;
        if remaining.is_zero() {
            return None;
        }
        let lo = self.policy.base.as_secs_f64();
        let hi = (self.prev.as_secs_f64() * 3.0).max(lo);
        let unit = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let jittered = Duration::from_secs_f64(lo + (hi - lo) * unit);
        let delay = jittered.min(self.policy.cap).min(remaining);
        self.slept += delay;
        self.prev = delay.max(self.policy.base);
        self.attempt += 1;
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_noop_and_valid() {
        let spec = FaultSpec::default();
        assert!(spec.is_noop());
        let plan = spec.compile().unwrap();
        for i in 0..1000 {
            assert_eq!(plan.action(0, i), FaultAction::None);
        }
        assert_eq!(plan.slowdown(0, 123.0), 1.0);
    }

    #[test]
    fn plan_is_reproducible_and_seed_sensitive() {
        let spec = FaultSpec {
            transient_rate: 0.2,
            stall_rate: 0.1,
            corrupt_rate: 0.05,
            poison_rate: 0.01,
            seed: 42,
            ..FaultSpec::default()
        };
        let a = spec.compile().unwrap();
        let b = spec.compile().unwrap();
        let c = FaultSpec {
            seed: 43,
            ..spec.clone()
        }
        .compile()
        .unwrap();
        let actions =
            |p: &FaultPlan| -> Vec<FaultAction> { (0..2048).map(|i| p.action(1, i)).collect() };
        assert_eq!(actions(&a), actions(&b));
        assert_ne!(actions(&a), actions(&c));
    }

    #[test]
    fn rates_roughly_match_frequencies() {
        let spec = FaultSpec {
            transient_rate: 0.25,
            seed: 7,
            ..FaultSpec::default()
        };
        let plan = spec.compile().unwrap();
        let n = 10_000;
        let hits = (0..n)
            .filter(|&i| plan.action(0, i) == FaultAction::TransientError)
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed {rate}");
    }

    #[test]
    fn class_seeds_are_independent() {
        // Raising the transient rate must not change which indices corrupt.
        let lo = FaultSpec {
            transient_rate: 0.01,
            corrupt_rate: 0.1,
            seed: 5,
            ..FaultSpec::default()
        };
        let hi = FaultSpec {
            transient_rate: 0.5,
            ..lo.clone()
        };
        let corrupts = |p: &FaultPlan| -> Vec<u64> {
            (0..4096)
                .filter(|&i| p.action(0, i) == FaultAction::Corrupt)
                .collect()
        };
        let a = corrupts(&lo.compile().unwrap());
        let b = corrupts(&hi.compile().unwrap());
        // Transients mask some corrupt draws (priority), so b ⊆ a.
        assert!(!a.is_empty());
        assert!(b.iter().all(|i| a.contains(i)));
    }

    #[test]
    fn invalid_rates_and_profiles_rejected() {
        let mut spec = FaultSpec {
            transient_rate: 1.0,
            ..FaultSpec::default()
        };
        assert!(matches!(
            spec.validate(),
            Err(FaultConfigError::InvalidRate { .. })
        ));
        spec.transient_rate = 0.1;
        spec.slowdown = vec![SlowdownProfile::Constant(0.5)];
        assert!(matches!(
            spec.validate(),
            Err(FaultConfigError::InvalidProfile { .. })
        ));
        spec.slowdown = vec![SlowdownProfile::Flap {
            period_s: 0.0,
            lo: 1.0,
            hi: 2.0,
        }];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn profiles_evaluate_as_described() {
        let step = SlowdownProfile::Step {
            at_s: 10.0,
            factor: 3.0,
        };
        assert_eq!(step.factor_at(9.9), 1.0);
        assert_eq!(step.factor_at(10.0), 3.0);
        assert_eq!(step.peak(), 3.0);

        let flap = SlowdownProfile::Flap {
            period_s: 4.0,
            lo: 1.0,
            hi: 2.0,
        };
        assert_eq!(flap.factor_at(1.0), 2.0); // first half: hi
        assert_eq!(flap.factor_at(3.0), 1.0); // second half: lo
        assert_eq!(flap.factor_at(5.0), 2.0); // periodic

        let ramp = SlowdownProfile::Ramp {
            from: 1.0,
            to: 3.0,
            over_s: 10.0,
        };
        assert_eq!(ramp.factor_at(0.0), 1.0);
        assert!((ramp.factor_at(5.0) - 2.0).abs() < 1e-12);
        assert_eq!(ramp.factor_at(20.0), 3.0);
    }

    #[test]
    fn parse_round_trips_a_full_spec() {
        let spec = FaultSpec::parse(
            "transient=0.05,corrupt=0.01,stall=0.02,stall-ms=50,poison=0.001,seed=9,\
             slow=2:step:2.5:40,slow=0:flap:1.0:3.0:10",
        )
        .unwrap();
        assert_eq!(spec.transient_rate, 0.05);
        assert_eq!(spec.corrupt_rate, 0.01);
        assert_eq!(spec.stall_rate, 0.02);
        assert_eq!(spec.stall, Duration::from_millis(50));
        assert_eq!(spec.poison_rate, 0.001);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.slowdown.len(), 3);
        assert_eq!(
            spec.slowdown[0],
            SlowdownProfile::Flap {
                lo: 1.0,
                hi: 3.0,
                period_s: 10.0
            }
        );
        assert_eq!(spec.slowdown[1], SlowdownProfile::NOMINAL);
        assert_eq!(
            spec.slowdown[2],
            SlowdownProfile::Step {
                factor: 2.5,
                at_s: 40.0
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSpec::parse("transient").is_err());
        assert!(FaultSpec::parse("transient=x").is_err());
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("slow=0:wedge:2").is_err());
        assert!(
            FaultSpec::parse("transient=1.5").is_err(),
            "validated after parse"
        );
        assert!(FaultSpec::parse("").map(|s| s.is_noop()).unwrap_or(false));
    }

    #[test]
    fn parse_crash_terms_with_and_without_rejoin() {
        let spec = FaultSpec::parse("crash@6:node=1,rejoin=12,crash@3:node=0,seed=9").unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(
            spec.crashes,
            vec![
                CrashSpec {
                    node: 1,
                    tick: 6,
                    rejoin: Some(12)
                },
                CrashSpec {
                    node: 0,
                    tick: 3,
                    rejoin: None
                },
            ]
        );
        assert!(!spec.is_noop());

        assert!(
            FaultSpec::parse("rejoin=5").is_err(),
            "rejoin needs a crash"
        );
        assert!(FaultSpec::parse("crash@6:node=1,rejoin=12,rejoin=13").is_err());
        assert!(FaultSpec::parse("crash@x:node=1").is_err());
        assert!(FaultSpec::parse("crash@6:gpu=1").is_err());
        assert!(
            FaultSpec::parse("crash@6:node=1,rejoin=6").is_err(),
            "rejoin must be after crash"
        );
        assert!(
            FaultSpec::parse("crash@6:node=99").is_err(),
            "node mask is 64 wide"
        );
    }

    #[test]
    fn overlapping_crash_windows_rejected() {
        // Crash again while still down (no rejoin): invalid.
        let spec = FaultSpec {
            crashes: vec![
                CrashSpec {
                    node: 2,
                    tick: 4,
                    rejoin: None,
                },
                CrashSpec {
                    node: 2,
                    tick: 9,
                    rejoin: None,
                },
            ],
            ..FaultSpec::default()
        };
        assert!(matches!(
            spec.validate(),
            Err(FaultConfigError::InvalidCrash { .. })
        ));
        // Disjoint windows on the same node are fine.
        let spec = FaultSpec {
            crashes: vec![
                CrashSpec {
                    node: 2,
                    tick: 4,
                    rejoin: Some(6),
                },
                CrashSpec {
                    node: 2,
                    tick: 9,
                    rejoin: None,
                },
            ],
            ..FaultSpec::default()
        };
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn membership_timeline_is_deterministic_and_tick_exact() {
        let plan = FaultSpec {
            crashes: vec![
                CrashSpec {
                    node: 1,
                    tick: 4,
                    rejoin: Some(8),
                },
                CrashSpec {
                    node: 0,
                    tick: 4,
                    rejoin: None,
                },
            ],
            ..FaultSpec::default()
        }
        .compile()
        .unwrap();
        assert!(plan.has_crashes());
        let tl = plan.membership_timeline(12);
        assert_eq!(
            tl,
            vec![
                MembershipEvent {
                    tick: 4,
                    node: 0,
                    transition: MembershipTransition::Crashed
                },
                MembershipEvent {
                    tick: 4,
                    node: 1,
                    transition: MembershipTransition::Crashed
                },
                MembershipEvent {
                    tick: 8,
                    node: 1,
                    transition: MembershipTransition::Rejoined
                },
            ]
        );
        assert_eq!(plan.down_mask_at(3), 0);
        assert_eq!(plan.down_mask_at(4), 0b11);
        assert_eq!(plan.down_mask_at(7), 0b11);
        assert_eq!(plan.down_mask_at(8), 0b01, "node 1 back at its rejoin tick");
        assert!(plan.node_down(0, 1000), "no rejoin means down forever");
        assert!(!plan.node_down(1, 8));
        // Pure function of the spec: recompilation agrees everywhere.
        let again = plan.spec().clone().compile().unwrap();
        assert_eq!(again.membership_timeline(12), tl);
    }

    #[test]
    fn backoff_respects_cap_deadline_and_attempts() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
            deadline: Duration::from_millis(35),
        };
        let delays: Vec<Duration> = policy.backoff(3).collect();
        assert!(delays.len() <= 5, "at most max_attempts - 1 sleeps");
        assert!(delays.iter().all(|d| *d <= policy.cap));
        let total: Duration = delays.iter().sum();
        assert!(total <= policy.deadline, "slept {total:?}");
        // Replays sleep identically.
        assert_eq!(delays, policy.backoff(3).collect::<Vec<_>>());
        assert_ne!(delays, policy.backoff(4).collect::<Vec<_>>());
    }

    #[test]
    fn corrupt_position_is_in_bounds_and_deterministic() {
        let plan = FaultSpec {
            corrupt_rate: 0.5,
            seed: 11,
            ..FaultSpec::default()
        }
        .compile()
        .unwrap();
        for i in 0..100 {
            let p = plan.corrupt_position(0, i, 333);
            assert!(p < 333);
            assert_eq!(p, plan.corrupt_position(0, i, 333));
        }
        assert_eq!(plan.corrupt_position(0, 1, 0), 0, "empty payload safe");
    }
}
