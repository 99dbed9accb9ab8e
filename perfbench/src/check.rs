//! Schedule digests: what makes two runs "the same run".
//!
//! A digest folds a run's schedule-determining outputs — simulated end
//! instant, admitted/completed/failed/shed job counts, kernel count, total
//! λ, and per-processor busy/transfer time and kernel count — into one
//! FNV-1a hash. Streaming quantile estimates are left out on purpose, so a
//! change of estimator does not read as a different schedule.

use apt_base::{SimDuration, SimTime};
use apt_hetsim::{ProcStats, SimResult};
use apt_stream::StreamOutcome;

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The schedule-determining outputs of one streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamTotals {
    /// Simulated instant of the last event.
    pub end: SimTime,
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Admitted jobs shed by the failure model (zero without faults).
    pub failed: u64,
    /// Arrivals shed by the gate or the in-flight cap.
    pub shed: u64,
    /// Kernels completed.
    pub kernels: u64,
    /// Total λ delay.
    pub lambda_total: SimDuration,
    /// Per-processor aggregates.
    pub proc_stats: Vec<ProcStats>,
}

impl StreamTotals {
    /// The totals of a bare driver run.
    pub fn of(o: &StreamOutcome) -> StreamTotals {
        StreamTotals {
            end: o.end,
            admitted: o.jobs_admitted,
            completed: o.jobs_completed,
            failed: o.jobs_failed,
            shed: o.jobs_shed,
            kernels: o.kernels_completed,
            lambda_total: o.lambda_total,
            proc_stats: o.proc_stats.clone(),
        }
    }

    /// Hash of every field.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for w in [
            self.end.as_ns(),
            self.admitted,
            self.completed,
            self.failed,
            self.shed,
            self.kernels,
            self.lambda_total.as_ns(),
        ] {
            d.push(w);
        }
        for p in &self.proc_stats {
            d.push(p.busy.as_ns());
            d.push(p.transfer.as_ns());
            d.push(p.kernels as u64);
        }
        d.value()
    }

    /// Conservation laws every fault-free run obeys, whatever the seed:
    /// every offered arrival is admitted or shed, every admitted job
    /// completes with all its kernels, and the processors account for
    /// every kernel.
    pub fn conserves(&self, offered: u64, kernels_per_job: u64) -> bool {
        let on_procs: u64 = self.proc_stats.iter().map(|p| p.kernels as u64).sum();
        self.admitted + self.shed == offered
            && self.completed == self.admitted
            && self.failed == 0
            && self.kernels == self.completed * kernels_per_job
            && on_procs == self.kernels
            && self.end > SimTime::ZERO
    }
}

/// Hash of one closed simulation's schedule-determining outputs: makespan
/// and total λ.
pub fn closed_digest(res: &SimResult) -> u64 {
    let mut d = Digest::default();
    d.push(res.makespan().as_ns());
    d.push(res.lambda_total().as_ns());
    d.value()
}
