//! Synthetic sample storage for the live runtime.
//!
//! The paper's online component reads JPEG files from Lustre; here a
//! [`SyntheticStore`] generates each sample's bytes deterministically from
//! its id (so correctness is checkable end-to-end) and charges a simulated
//! fetch cost — a per-request latency plus bytes/bandwidth delay — standing
//! in for the PFS. The delay is real wall-clock time, so the engine's
//! measured timings are real.
//!
//! A store may carry a [`FaultPlan`]: each fetch attempt then consults the
//! seeded schedule and may fail transiently, stall, corrupt its payload, or
//! panic ([`FaultAction::Poison`]), and all transfer waits are multiplied
//! by the plan's time-varying node slowdown. [`SyntheticStore::try_fetch`]
//! is the fallible/deadline-aware entry point the resilient fetch path
//! uses; the simulated-transfer sleep is chunked against a cancel flag so
//! engine shutdown never blocks on a multi-second simulated PFS read.

use lobster_data::{Dataset, SampleId};
use lobster_sim::SplitMix64;
use lobster_storage::faults::{FaultAction, FaultPlan};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The generator of a sample's canonical bytes: SplitMix64 seeded by the
/// sample id, each word laid out little-endian. The one stream
/// [`sample_bytes`] and [`canonical_checksum`] share.
fn sample_rng(id: SampleId) -> SplitMix64 {
    SplitMix64::new(0x5A4D_0000_0000_0000 ^ id.0 as u64)
}

/// Generate the canonical bytes of a sample. Cheap, deterministic, and
/// incompressible enough to defeat accidental shortcuts.
pub fn sample_bytes(id: SampleId, len: usize) -> Vec<u8> {
    let mut rng = sample_rng(id);
    // Room for whole words, so the last one never reallocates.
    let mut out = Vec::with_capacity(len.next_multiple_of(8));
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Stream the `len` canonical bytes of a sample to `emit`, in order, the
/// last word cut short.
fn sample_stream(id: SampleId, len: usize, mut emit: impl FnMut(&[u8])) {
    let mut rng = sample_rng(id);
    for _ in 0..len / 8 {
        emit(&rng.next_u64().to_le_bytes());
    }
    let tail = len % 8;
    if tail > 0 {
        emit(&rng.next_u64().to_le_bytes()[..tail]);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a running FNV-1a state.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Reference checksum of a sample's canonical bytes (FNV-1a), used by tests
/// and the preprocessing transform to verify integrity end-to-end.
pub fn sample_checksum(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// `sample_checksum(&sample_bytes(id, len))` without building the bytes:
/// the sample's word stream goes straight through FNV-1a, with no
/// allocation.
pub fn canonical_checksum(id: SampleId, len: usize) -> u64 {
    let mut h = FNV_OFFSET;
    sample_stream(id, len, |chunk| h = fnv1a(h, chunk));
    h
}

/// `(canonical_checksum(id, len), sample_checksum(payload))` in one pass
/// when the payload has the canonical length: the two FNV-1a chains are
/// independent, so the core runs them side by side for about the price of
/// one.
pub(crate) fn canonical_and_payload_checksums(
    id: SampleId,
    len: usize,
    payload: &[u8],
) -> (u64, u64) {
    if payload.len() != len {
        return (canonical_checksum(id, len), sample_checksum(payload));
    }
    let (mut want, mut got) = (FNV_OFFSET, FNV_OFFSET);
    let mut rest = payload;
    sample_stream(id, len, |chunk| {
        let (head, tail) = rest.split_at(chunk.len());
        want = fnv1a(want, chunk);
        got = fnv1a(got, head);
        rest = tail;
    });
    (want, got)
}

/// Why a [`SyntheticStore::try_fetch`] attempt did not return bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchError {
    /// An injected transient failure; a retry may succeed.
    Transient { fetch_index: u64 },
    /// The fetch (including any injected stall) did not finish within the
    /// caller's deadline.
    DeadlineExceeded { fetch_index: u64 },
    /// The sample's peer-routed source is a crashed node. Fails *fast*
    /// (no simulated wait, no fault-index consumed): the caller should
    /// immediately fail over to the PFS via
    /// [`SyntheticStore::try_fetch_direct`] instead of retrying.
    PeerDown { peer: u32 },
    /// The store's cancel flag was raised mid-transfer (engine shutdown).
    Cancelled,
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Transient { fetch_index } => {
                write!(f, "transient fetch error (attempt #{fetch_index})")
            }
            FetchError::DeadlineExceeded { fetch_index } => {
                write!(f, "fetch deadline exceeded (attempt #{fetch_index})")
            }
            FetchError::PeerDown { peer } => {
                write!(f, "peer node {peer} is down; fail over to the PFS")
            }
            FetchError::Cancelled => write!(f, "fetch cancelled by shutdown"),
        }
    }
}

impl std::error::Error for FetchError {}

/// Counts of injected faults, for reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    pub transients: u64,
    pub stalls: u64,
    pub corruptions: u64,
    pub poisons: u64,
    /// Peer-routed attempts that failed fast because the peer was down.
    pub peer_down: u64,
}

/// Granularity of the interruptible simulated-transfer sleep: long waits
/// are chunked so a raised cancel flag or an expiring deadline is noticed
/// within this window instead of after the full simulated read.
const SLEEP_CHUNK: Duration = Duration::from_millis(2);

enum SleepOutcome {
    Completed,
    Cancelled,
    DeadlinePassed,
}

/// Sleep `total`, checking the cancel flag and deadline every
/// [`SLEEP_CHUNK`]. `elapsed` is how much of the deadline budget the fetch
/// had already spent when the sleep started.
fn interruptible_sleep(
    total: Duration,
    cancel: &AtomicBool,
    started: Instant,
    deadline: Option<Duration>,
) -> SleepOutcome {
    let mut slept = Duration::ZERO;
    while slept < total {
        if cancel.load(Ordering::Relaxed) {
            return SleepOutcome::Cancelled;
        }
        if let Some(d) = deadline {
            if started.elapsed() >= d {
                return SleepOutcome::DeadlinePassed;
            }
        }
        let chunk = SLEEP_CHUNK.min(total - slept);
        std::thread::sleep(chunk);
        slept += chunk;
    }
    SleepOutcome::Completed
}

/// A backing store with simulated fetch cost and optional fault injection.
pub struct SyntheticStore {
    dataset: Dataset,
    /// Per-request latency.
    latency: Duration,
    /// Simulated bandwidth in bytes/second (0 = infinite).
    bytes_per_sec: f64,
    fetches: AtomicU64,
    bytes_fetched: AtomicU64,
    /// Compiled fault schedule; `None` = the infallible store of PR 1.
    faults: Option<FaultPlan>,
    /// Which node this store represents in the fault plan.
    node: usize,
    /// Monotone per-attempt index into the fault schedule.
    fault_index: AtomicU64,
    /// Wall-clock origin for time-varying slowdown profiles.
    epoch: Instant,
    /// Raised by the engine on shutdown; cuts simulated transfers short.
    cancel: Arc<AtomicBool>,
    /// Peer-routing topology: samples hash onto `0..peer_nodes` peers
    /// (0 = peer routing disabled — every fetch is a direct PFS read).
    peer_nodes: AtomicU64,
    /// Bitmask of currently-crashed peers; set by the engine's consumer 0
    /// at tick boundaries from the compiled crash plan.
    down_mask: AtomicU64,
    injected_transients: AtomicU64,
    injected_stalls: AtomicU64,
    injected_corruptions: AtomicU64,
    injected_poisons: AtomicU64,
    injected_peer_down: AtomicU64,
}

impl SyntheticStore {
    pub fn new(dataset: Dataset, latency: Duration, bytes_per_sec: f64) -> SyntheticStore {
        SyntheticStore {
            dataset,
            latency,
            bytes_per_sec,
            fetches: AtomicU64::new(0),
            bytes_fetched: AtomicU64::new(0),
            faults: None,
            node: 0,
            fault_index: AtomicU64::new(0),
            epoch: Instant::now(),
            cancel: Arc::new(AtomicBool::new(false)),
            peer_nodes: AtomicU64::new(0),
            down_mask: AtomicU64::new(0),
            injected_transients: AtomicU64::new(0),
            injected_stalls: AtomicU64::new(0),
            injected_corruptions: AtomicU64::new(0),
            injected_poisons: AtomicU64::new(0),
            injected_peer_down: AtomicU64::new(0),
        }
    }

    /// A store whose fetches follow the given fault plan (as node 0).
    pub fn with_faults(
        dataset: Dataset,
        latency: Duration,
        bytes_per_sec: f64,
        plan: FaultPlan,
    ) -> SyntheticStore {
        let mut store = SyntheticStore::new(dataset, latency, bytes_per_sec);
        if !plan.is_noop() {
            store.faults = Some(plan);
        }
        store
    }

    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The shutdown flag: raising it makes in-flight simulated transfers
    /// return [`FetchError::Cancelled`] within one sleep chunk, so teardown
    /// never waits out a multi-second simulated PFS read.
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Enable peer routing: samples hash onto `nodes` peers and a fetch of
    /// a sample whose peer is marked down fails fast with
    /// [`FetchError::PeerDown`]. 0 disables routing.
    pub fn configure_peers(&self, nodes: usize) {
        self.peer_nodes.store(nodes as u64, Ordering::Relaxed);
    }

    /// Mark the set of crashed peers (bit `n` = peer `n` down). Applied by
    /// the engine's consumer 0 at tick boundaries from the crash plan, so
    /// the peer-down window is tick-deterministic.
    pub fn set_down_mask(&self, mask: u64) {
        self.down_mask.store(mask, Ordering::Relaxed);
    }

    /// The current crashed-peer bitmask.
    pub fn down_mask(&self) -> u64 {
        self.down_mask.load(Ordering::Relaxed)
    }

    /// The peer a sample routes through, when peer routing is enabled.
    /// Deterministic (seeded hash of the id), mirroring the simulators'
    /// KV hash-owner rule.
    pub fn peer_of(&self, id: SampleId) -> Option<u32> {
        let nodes = self.peer_nodes.load(Ordering::Relaxed);
        if nodes == 0 {
            return None;
        }
        Some((lobster_sim::derive_seed(0x5045_4552, id.0 as u64) % nodes) as u32)
    }

    /// One fetch attempt. Consults the fault schedule (when present),
    /// charges the simulated transfer time — scaled by the plan's
    /// time-varying slowdown and cut short by cancellation or `deadline` —
    /// and returns the payload, which an injected corruption may have
    /// damaged (callers verify via [`sample_checksum`]).
    ///
    /// # Panics
    /// An injected [`FaultAction::Poison`] panics deliberately, modelling a
    /// crashed loader worker; the engine's containment path catches it.
    pub fn try_fetch(
        &self,
        id: SampleId,
        deadline: Option<Duration>,
    ) -> Result<Vec<u8>, FetchError> {
        // Peer routing: a sample whose hash-peer is down fails *fast* —
        // no simulated wait, and no fault-schedule index consumed (the
        // attempt never reached the wire), so the crash window does not
        // perturb the seeded transient/stall/corrupt streams.
        if let Some(peer) = self.peer_of(id) {
            if self.down_mask.load(Ordering::Relaxed) & (1u64 << peer) != 0 {
                self.injected_peer_down.fetch_add(1, Ordering::Relaxed);
                return Err(FetchError::PeerDown { peer });
            }
        }
        self.try_fetch_direct(id, deadline)
    }

    /// One fetch attempt straight at the PFS, bypassing peer routing —
    /// the failover path a [`FetchError::PeerDown`] caller takes.
    pub fn try_fetch_direct(
        &self,
        id: SampleId,
        deadline: Option<Duration>,
    ) -> Result<Vec<u8>, FetchError> {
        let started = Instant::now();
        let len = self.dataset.size_of(id) as usize;
        let (action, fetch_index) = match &self.faults {
            Some(plan) => {
                let idx = self.fault_index.fetch_add(1, Ordering::Relaxed);
                (plan.action(self.node, idx), idx)
            }
            None => (FaultAction::None, 0),
        };

        if action == FaultAction::Poison {
            self.injected_poisons.fetch_add(1, Ordering::Relaxed);
            panic!("injected poison fault: loader worker crash on fetch #{fetch_index}");
        }

        let mut wait = self.latency;
        if self.bytes_per_sec > 0.0 {
            wait += Duration::from_secs_f64(len as f64 / self.bytes_per_sec);
        }
        if let Some(plan) = &self.faults {
            let factor = plan.slowdown(self.node, self.epoch.elapsed().as_secs_f64());
            if factor > 1.0 {
                wait = wait.mul_f64(factor);
            }
        }
        if action == FaultAction::TransientError {
            // A dropped request fails after the round trip, not the full
            // transfer: charge the latency only.
            self.injected_transients.fetch_add(1, Ordering::Relaxed);
            match interruptible_sleep(self.latency, &self.cancel, started, deadline) {
                SleepOutcome::Cancelled => return Err(FetchError::Cancelled),
                _ => return Err(FetchError::Transient { fetch_index }),
            }
        }
        if let FaultAction::Stall(extra) = action {
            self.injected_stalls.fetch_add(1, Ordering::Relaxed);
            wait += extra;
        }
        if !wait.is_zero() {
            match interruptible_sleep(wait, &self.cancel, started, deadline) {
                SleepOutcome::Completed => {}
                SleepOutcome::Cancelled => return Err(FetchError::Cancelled),
                SleepOutcome::DeadlinePassed => {
                    return Err(FetchError::DeadlineExceeded { fetch_index })
                }
            }
        }

        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.bytes_fetched.fetch_add(len as u64, Ordering::Relaxed);
        let mut bytes = sample_bytes(id, len);
        if action == FaultAction::Corrupt {
            self.injected_corruptions.fetch_add(1, Ordering::Relaxed);
            if let Some(plan) = &self.faults {
                let pos = plan.corrupt_position(self.node, fetch_index, len);
                if let Some(b) = bytes.get_mut(pos) {
                    *b ^= 0xFF;
                }
            }
        }
        Ok(bytes)
    }

    /// Fetch a sample's bytes, sleeping for the simulated transfer time.
    ///
    /// The infallible legacy path: on a fault-free store this is exactly
    /// the PR-1 behaviour. On a fault-injected store it retries transient
    /// errors inline and may return a *corrupted* payload — resilient
    /// callers should go through `ResilientStore` instead, which verifies
    /// checksums and enforces deadlines.
    pub fn fetch(&self, id: SampleId) -> Vec<u8> {
        let mut direct = false;
        loop {
            let result = if direct {
                self.try_fetch_direct(id, None)
            } else {
                self.try_fetch(id, None)
            };
            match result {
                Ok(bytes) => return bytes,
                Err(FetchError::Cancelled) => {
                    // Shutdown: serve canonical bytes without charging the
                    // remaining simulated transfer so teardown stays prompt.
                    return sample_bytes(id, self.dataset.size_of(id) as usize);
                }
                Err(FetchError::PeerDown { .. }) => direct = true,
                Err(_) => continue,
            }
        }
    }

    /// Total fetches served (for hit-ratio accounting).
    pub fn fetch_count(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    /// Total bytes served.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_fetched.load(Ordering::Relaxed)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            transients: self.injected_transients.load(Ordering::Relaxed),
            stalls: self.injected_stalls.load(Ordering::Relaxed),
            corruptions: self.injected_corruptions.load(Ordering::Relaxed),
            poisons: self.injected_poisons.load(Ordering::Relaxed),
            peer_down: self.injected_peer_down.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_data::SizeDistribution;
    use lobster_storage::faults::FaultSpec;

    fn dataset() -> Dataset {
        Dataset::generate("rt", 64, SizeDistribution::Uniform { lo: 100, hi: 1000 }, 5)
    }

    #[test]
    fn sample_bytes_are_deterministic_and_sized() {
        let a = sample_bytes(SampleId(7), 333);
        let b = sample_bytes(SampleId(7), 333);
        let c = sample_bytes(SampleId(8), 333);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 333);
    }

    #[test]
    fn canonical_checksum_matches_the_materialised_bytes() {
        let lens = (0..=17).chain([1023, 1024, 1025, 4 << 10, 128 << 10]);
        for len in lens {
            for id in [SampleId(0), SampleId(7), SampleId(u32::MAX)] {
                assert_eq!(
                    canonical_checksum(id, len),
                    sample_checksum(&sample_bytes(id, len)),
                    "sample {} len {len}",
                    id.0
                );
            }
        }
    }

    #[test]
    fn fused_checksums_match_the_separate_ones() {
        let id = SampleId(3);
        let mut payload = sample_bytes(id, 1029);
        let canonical = canonical_checksum(id, 1029);
        assert_eq!(
            canonical_and_payload_checksums(id, 1029, &payload),
            (canonical, canonical)
        );
        payload[1028] ^= 1;
        assert_eq!(
            canonical_and_payload_checksums(id, 1029, &payload),
            (canonical, sample_checksum(&payload))
        );
        assert_eq!(
            canonical_and_payload_checksums(id, 1029, &payload[..1000]),
            (canonical, sample_checksum(&payload[..1000]))
        );
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut v = sample_bytes(SampleId(1), 128);
        let h = sample_checksum(&v);
        v[5] ^= 0xFF;
        assert_ne!(h, sample_checksum(&v));
    }

    #[test]
    fn store_fetch_returns_canonical_bytes_and_counts() {
        let ds = dataset();
        let want_len = ds.size_of(SampleId(3)) as usize;
        let store = SyntheticStore::new(ds, Duration::ZERO, 0.0);
        let got = store.fetch(SampleId(3));
        assert_eq!(got, sample_bytes(SampleId(3), want_len));
        assert_eq!(store.fetch_count(), 1);
        assert_eq!(store.bytes_served(), want_len as u64);
    }

    #[test]
    fn store_latency_is_charged() {
        let store = SyntheticStore::new(dataset(), Duration::from_millis(5), 0.0);
        let t0 = std::time::Instant::now();
        store.fetch(SampleId(0));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn cancel_cuts_a_long_simulated_transfer_short() {
        // 10 bytes/s on a >=100-byte sample: a ~10 s simulated read.
        let store = Arc::new(SyntheticStore::new(dataset(), Duration::ZERO, 10.0));
        let cancel = store.cancel_handle();
        let s2 = Arc::clone(&store);
        let t0 = Instant::now();
        let worker = std::thread::spawn(move || s2.try_fetch(SampleId(0), None));
        std::thread::sleep(Duration::from_millis(20));
        cancel.store(true, Ordering::Relaxed);
        let result = worker.join().unwrap();
        assert_eq!(result, Err(FetchError::Cancelled));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "cancel took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn deadline_bounds_a_stalled_fetch() {
        let plan = FaultSpec {
            stall_rate: 0.999_999, // rates must be < 1; this fires every time
            stall: Duration::from_secs(5),
            seed: 1,
            ..FaultSpec::default()
        }
        .compile()
        .unwrap();
        let store = SyntheticStore::with_faults(dataset(), Duration::ZERO, 0.0, plan);
        let t0 = Instant::now();
        let err = store
            .try_fetch(SampleId(0), Some(Duration::from_millis(20)))
            .unwrap_err();
        assert!(matches!(err, FetchError::DeadlineExceeded { .. }));
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert_eq!(store.injected().stalls, 1);
    }

    #[test]
    fn transient_errors_follow_the_plan_and_legacy_fetch_retries() {
        let plan = FaultSpec {
            transient_rate: 0.5,
            seed: 9,
            ..FaultSpec::default()
        }
        .compile()
        .unwrap();
        let ds = dataset();
        let want = sample_bytes(SampleId(2), ds.size_of(SampleId(2)) as usize);
        let store = SyntheticStore::with_faults(ds, Duration::ZERO, 0.0, plan);
        // The legacy path retries transients inline and still delivers
        // canonical bytes.
        for _ in 0..32 {
            assert_eq!(store.fetch(SampleId(2)), want);
        }
        assert!(
            store.injected().transients > 0,
            "rate 0.5 over many attempts"
        );
    }

    #[test]
    fn corruption_damages_exactly_one_byte() {
        let plan = FaultSpec {
            corrupt_rate: 0.999_999,
            seed: 3,
            ..FaultSpec::default()
        }
        .compile()
        .unwrap();
        let ds = dataset();
        let want = sample_bytes(SampleId(5), ds.size_of(SampleId(5)) as usize);
        let store = SyntheticStore::with_faults(ds, Duration::ZERO, 0.0, plan);
        let got = store.try_fetch(SampleId(5), None).unwrap();
        assert_ne!(got, want, "payload must be corrupted");
        let diff = got.iter().zip(&want).filter(|(a, b)| a != b).count();
        assert_eq!(diff, 1);
        assert_ne!(sample_checksum(&got), sample_checksum(&want));
    }

    #[test]
    fn peer_down_fails_fast_and_direct_path_bypasses() {
        let ds = dataset();
        let store = SyntheticStore::new(ds, Duration::from_millis(50), 0.0);
        store.configure_peers(2);
        // Find a sample routed through peer 1, then crash peer 1.
        let id = (0..64u32)
            .map(SampleId)
            .find(|&s| store.peer_of(s) == Some(1))
            .expect("some sample hashes to peer 1");
        store.set_down_mask(1 << 1);
        let t0 = Instant::now();
        let err = store.try_fetch(id, None).unwrap_err();
        assert_eq!(err, FetchError::PeerDown { peer: 1 });
        assert!(
            t0.elapsed() < Duration::from_millis(40),
            "peer-down must fail fast, not charge the transfer: {:?}",
            t0.elapsed()
        );
        assert_eq!(store.injected().peer_down, 1);
        // The direct path serves the sample regardless of the mask.
        let want_len = store.dataset().size_of(id) as usize;
        assert_eq!(
            store.try_fetch_direct(id, None).unwrap(),
            sample_bytes(id, want_len)
        );
        // Rejoin: the routed path works again.
        store.set_down_mask(0);
        assert!(store.try_fetch(id, None).is_ok());
    }

    #[test]
    fn legacy_fetch_survives_a_down_peer() {
        let store = SyntheticStore::new(dataset(), Duration::ZERO, 0.0);
        store.configure_peers(1);
        store.set_down_mask(1);
        let want = sample_bytes(SampleId(9), store.dataset().size_of(SampleId(9)) as usize);
        assert_eq!(store.fetch(SampleId(9)), want);
        assert_eq!(store.injected().peer_down, 1);
    }

    #[test]
    fn poison_panics_the_fetching_thread() {
        let plan = FaultSpec {
            poison_rate: 0.999_999,
            seed: 4,
            ..FaultSpec::default()
        }
        .compile()
        .unwrap();
        let store = SyntheticStore::with_faults(dataset(), Duration::ZERO, 0.0, plan);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.try_fetch(SampleId(0), None)
        }));
        assert!(r.is_err());
        assert_eq!(store.injected().poisons, 1);
    }
}
