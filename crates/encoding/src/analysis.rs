//! The closed-form cost model of Table 2, plus an empirical simulator.
//!
//! Table 2 of the paper compares the three encoding schemes on a chain of
//! `N` records with base-record size `S_b` and delta size `S_d`
//! (`S_b ≫ S_d`):
//!
//! | scheme            | storage                  | worst retrievals | writebacks        |
//! |-------------------|--------------------------|------------------|-------------------|
//! | backward          | `S_b + (N−1)·S_d`        | `N`              | `N`               |
//! | version jumping   | `N/H·S_b + (N−N/H)·S_d`  | `H`              | `N − N/H`         |
//! | hop               | `S_b + (N−1)·S_d`        | `H + log_H N`    | `N + N·H/(H−1)²`  |
//!
//! The hop row's `H + log_H N` is the paper's loose bound. The layout alone
//! does not keep it. A pending hop base keeps its short delta to its
//! successor until the next base of its level arrives, so a path that
//! climbs the lanes to a pending base walks down the lanes after it again:
//! about `H − 1` more hops per level on the way down, on every level the
//! chain has reached. [`simulate`] measures that layout exactly, by
//! building the chain with [`crate::chain::ChainManager`] and walking every
//! decode path: under the default policy the worst read is 34 hops at
//! `N = 200`, 69 at 1 000 and 108 at 5 000. What keeps real reads near the
//! bound is the source cache, which holds each chain's pending hop bases
//! and, once a read has decoded them, its junctions (§3.3.1): a walk stops
//! at the first one it finds.

use crate::chain::ChainManager;
use crate::policy::EncodingPolicy;
use dbdedup_util::ids::RecordId;

/// Cost triple for one encoding scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodingCost {
    /// Expected on-disk bytes for the chain.
    pub storage_bytes: f64,
    /// Worst-case source retrievals to decode any record.
    pub worst_retrievals: f64,
    /// Extra record writes incurred by backward-encoding updates.
    pub writebacks: f64,
}

/// Analytic cost of standard backward encoding (Table 2, row 1).
pub fn backward_cost(n: u64, s_b: f64, s_d: f64) -> EncodingCost {
    EncodingCost {
        storage_bytes: s_b + (n.saturating_sub(1)) as f64 * s_d,
        worst_retrievals: n as f64,
        writebacks: n as f64,
    }
}

/// Analytic cost of version jumping with cluster size `h` (Table 2, row 2).
pub fn version_jumping_cost(n: u64, h: u64, s_b: f64, s_d: f64) -> EncodingCost {
    let refs = (n / h) as f64;
    EncodingCost {
        storage_bytes: refs * s_b + (n as f64 - refs) * s_d,
        worst_retrievals: h as f64,
        writebacks: n as f64 - refs,
    }
}

/// Analytic cost of hop encoding with hop distance `h` (Table 2, row 3).
pub fn hop_cost(n: u64, h: u64, s_b: f64, s_d: f64) -> EncodingCost {
    let hf = h as f64;
    let nf = n as f64;
    EncodingCost {
        storage_bytes: s_b + (n.saturating_sub(1)) as f64 * s_d,
        worst_retrievals: hf + nf.log(hf),
        writebacks: nf + nf * hf / ((hf - 1.0) * (hf - 1.0)),
    }
}

/// Empirical measurement of one policy over a chain of `n` records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedCost {
    /// Records left raw at the end of the chain (each costs `S_b`).
    pub raw_records: u64,
    /// Records stored as deltas (each costs ~`S_d`).
    pub delta_records: u64,
    /// Worst-case decode retrievals over all records.
    pub worst_retrievals: usize,
    /// Mean decode retrievals over all records.
    pub mean_retrievals: f64,
    /// Total committed writebacks.
    pub writebacks: u64,
}

impl SimulatedCost {
    /// Storage bytes under the `S_b`/`S_d` model.
    pub fn storage_bytes(&self, s_b: f64, s_d: f64) -> f64 {
        self.raw_records as f64 * s_b + self.delta_records as f64 * s_d
    }

    /// Compression ratio versus storing every record raw.
    pub fn compression_ratio(&self, s_b: f64, s_d: f64) -> f64 {
        let n = (self.raw_records + self.delta_records) as f64;
        n * s_b / self.storage_bytes(s_b, s_d)
    }
}

/// Builds an `n`-record chain under `policy` (committing every writeback)
/// and measures the real costs.
pub fn simulate(policy: EncodingPolicy, n: u64) -> SimulatedCost {
    assert!(n >= 1);
    let mut m = ChainManager::new(policy);
    let mut plans = vec![m.start_chain(RecordId(0))];
    for i in 1..n {
        plans.push(m.append(RecordId(i), RecordId(i - 1)));
    }
    for p in plans {
        for wb in p.writebacks {
            m.commit_writeback(wb);
        }
    }
    let mut raw = 0u64;
    let mut worst = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        if m.base_of(RecordId(i)).is_none() {
            raw += 1;
        }
        let r = m.retrievals_for(RecordId(i)).expect("record exists");
        worst = worst.max(r);
        total += r;
    }
    SimulatedCost {
        raw_records: raw,
        delta_records: n - raw,
        worst_retrievals: worst,
        mean_retrievals: total as f64 / n as f64,
        writebacks: m.stats().committed_writebacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 200;
    const SB: f64 = 16_384.0;
    const SD: f64 = 256.0;

    #[test]
    fn analytic_rows_reproduce_table2_relationships() {
        let h = 16;
        let bw = backward_cost(N, SB, SD);
        let vj = version_jumping_cost(N, h, SB, SD);
        let hop = hop_cost(N, h, SB, SD);

        // Hop storage equals backward storage; version jumping pays for raw
        // reference versions.
        assert_eq!(hop.storage_bytes, bw.storage_bytes);
        assert!(vj.storage_bytes > hop.storage_bytes * 2.0);

        // Retrievals: backward is O(N); the other two are O(H)-ish.
        assert!(bw.worst_retrievals > vj.worst_retrievals * 10.0);
        assert!(hop.worst_retrievals < vj.worst_retrievals + 3.0);

        // Writebacks: VJ < BW < HOP, converging as H grows.
        assert!(vj.writebacks < bw.writebacks);
        assert!(hop.writebacks > bw.writebacks);
        let hop_big = hop_cost(N, 64, SB, SD);
        assert!(hop_big.writebacks - N as f64 <= N as f64 * 64.0 / (63.0 * 63.0) + 1.0);
    }

    #[test]
    fn simulated_backward() {
        let s = simulate(EncodingPolicy::Backward, N);
        assert_eq!(s.raw_records, 1);
        assert_eq!(s.delta_records, N - 1);
        assert_eq!(s.worst_retrievals, (N - 1) as usize);
        assert_eq!(s.writebacks, N - 1);
    }

    #[test]
    fn simulated_version_jumping() {
        let h = 16;
        let s = simulate(EncodingPolicy::VersionJumping { cluster: h }, N);
        // One raw reference per full cluster, plus the trailing partial
        // cluster's unencoded head region.
        assert!(s.raw_records >= N / h, "raw {}", s.raw_records);
        assert!(s.worst_retrievals < h as usize);
        assert!(s.writebacks <= N - N / h);
    }

    #[test]
    fn simulated_hop_close_to_backward_compression() {
        let s = simulate(EncodingPolicy::Hop { distance: 16, max_levels: 3 }, N);
        let bw = simulate(EncodingPolicy::Backward, N);
        let ratio_hop = s.compression_ratio(SB, SD);
        let ratio_bw = bw.compression_ratio(SB, SD);
        // In the uniform S_b/S_d cost model hop matches backward exactly
        // (only the head is raw); the real-data ~10% loss comes from hop
        // deltas spanning less-similar records, measured in Fig 14's bench.
        assert!(ratio_hop > 0.99 * ratio_bw, "hop {ratio_hop:.2} vs backward {ratio_bw:.2}");
        // And decode cost vastly better than backward.
        assert!(s.worst_retrievals * 4 < bw.worst_retrievals);
    }

    #[test]
    fn simulated_hop_vs_vj_tradeoff_fig14() {
        // Across hop distances, hop encoding must beat VJ on compression
        // while staying in the same retrieval ballpark.
        for h in [4u64, 8, 16, 32] {
            let hop = simulate(EncodingPolicy::Hop { distance: h, max_levels: 3 }, N);
            let vj = simulate(EncodingPolicy::VersionJumping { cluster: h }, N);
            assert!(
                hop.compression_ratio(SB, SD) > vj.compression_ratio(SB, SD),
                "H={h}: hop must out-compress version jumping"
            );
            assert!(
                hop.worst_retrievals <= vj.worst_retrievals * 6 + 8,
                "H={h}: hop retrievals {} vs vj {}",
                hop.worst_retrievals,
                vj.worst_retrievals
            );
        }
    }

    #[test]
    fn default_hop_layout_exceeds_the_loose_bound_and_grows_with_n() {
        // (N, worst, mean) of the layout alone, with nothing cached.
        for (n, worst, mean) in [(200, 34, 19.5), (1_000, 69, 44.7), (5_000, 108, 77.6)] {
            let s = simulate(EncodingPolicy::default_hop(), n);
            let m = (s.mean_retrievals * 10.0).round() / 10.0;
            assert_eq!((s.worst_retrievals, m), (worst, mean), "N = {n}");
            let bound = hop_cost(n, 16, SB, SD).worst_retrievals;
            assert!(s.worst_retrievals as f64 > bound, "N = {n}: {worst} vs {bound:.1}");
        }
    }

    #[test]
    fn single_record_chain() {
        let s = simulate(EncodingPolicy::default_hop(), 1);
        assert_eq!(s.raw_records, 1);
        assert_eq!(s.worst_retrievals, 0);
        assert_eq!(s.writebacks, 0);
    }
}
