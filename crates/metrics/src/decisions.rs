//! Controller decision log.
//!
//! Every adaptive thread-reassignment — an elastic pool's role flip and
//! every Algorithm 1 solve inside `LobsterPolicy` — is captured as a
//! [`DecisionRecord`]: the inputs the controller saw (per-queue load and
//! the model's predicted per-queue cost), the thread vector it produced,
//! and the search's convergence status. The log is bounded; overflow is
//! counted, not stored.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Which controller produced a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionSource {
    /// An Algorithm 1 (binary-search thread assignment) solve in a policy.
    Algorithm1,
    /// The elastic worker pool flipping preproc↔loader roles at an
    /// iteration boundary.
    ElasticPool,
}

/// One adaptive thread-reassignment decision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Microseconds from the trace origin (wall clock for the runtime,
    /// simulated time for the DES).
    pub ts_us: u64,
    pub source: DecisionSource,
    /// Node the decision applies to (0 for the single-node runtime).
    pub node: u32,
    /// Input: observed per-queue load (cumulative preprocessing seconds
    /// per consumer for the live engine, queued bytes-cost seconds for the
    /// simulator).
    pub queue_loads: Vec<f64>,
    /// Input: model-predicted per-queue cost in seconds.
    pub predicted_cost: Vec<f64>,
    /// Thread vector before the decision (empty if unknown).
    pub threads_before: Vec<u32>,
    /// Output: thread vector after the decision.
    pub threads_after: Vec<u32>,
    /// Remaining straggler gap in seconds after the solve, if the source
    /// computes one.
    pub gap_s: Option<f64>,
    /// Model evaluations the search spent.
    pub evals: u32,
    /// Whether the search converged (closed the gap / stopped inside its
    /// tolerance window) rather than exhausting its budget.
    pub converged: bool,
    /// Telemetry anomalies observed before this decision (the hub's
    /// running count at decision time). Joins each Algorithm-1 / elastic
    /// decision to the anomaly state that preceded it: a decision with
    /// `anomalies_before` greater than the previous record's reacted to
    /// fresh trouble. Stamped by `Instruments::record_decision`; 0 when
    /// telemetry is off.
    pub anomalies_before: u32,
}

/// Bounded, thread-safe list of decisions.
pub struct DecisionLog {
    records: Mutex<Vec<DecisionRecord>>,
    cap: usize,
    dropped: AtomicU64,
}

const DEFAULT_CAP: usize = 64 * 1024;

impl DecisionLog {
    pub fn new() -> DecisionLog {
        DecisionLog::with_capacity(DEFAULT_CAP)
    }

    pub fn with_capacity(cap: usize) -> DecisionLog {
        DecisionLog {
            records: Mutex::new(Vec::new()),
            cap: cap.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn push(&self, record: DecisionRecord) {
        let mut records = self.records.lock().unwrap_or_else(|e| e.into_inner());
        if records.len() < self.cap {
            records.push(record);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn len(&self) -> usize {
        self.records.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> Vec<DecisionRecord> {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// JSONL export, one decision per line.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.snapshot() {
            out.push_str(&serde_json::to_string(&r).expect("decision render"));
            out.push('\n');
        }
        out
    }
}

impl Default for DecisionLog {
    fn default() -> DecisionLog {
        DecisionLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ts: u64) -> DecisionRecord {
        DecisionRecord {
            ts_us: ts,
            source: DecisionSource::Algorithm1,
            node: 0,
            queue_loads: vec![1.0, 2.0],
            predicted_cost: vec![0.5, 0.9],
            threads_before: vec![1, 1],
            threads_after: vec![1, 3],
            gap_s: Some(0.01),
            evals: 4,
            converged: true,
            anomalies_before: 0,
        }
    }

    #[test]
    fn bounded_log_counts_overflow() {
        let log = DecisionLog::with_capacity(2);
        for i in 0..4 {
            log.push(record(i));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 2);
    }

    #[test]
    fn jsonl_roundtrips_fields() {
        let log = DecisionLog::new();
        log.push(record(7));
        let line = log.jsonl();
        let v: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(v["ts_us"].as_u64().unwrap(), 7);
        assert_eq!(v["source"].as_str().unwrap(), "Algorithm1");
        assert_eq!(v["threads_after"][1].as_u64().unwrap(), 3);
        assert!(v["converged"].as_bool().unwrap());
    }
}
