//! Synchronous primary/secondary pair with byte-accurate network
//! accounting.

use dbdedup_core::{DedupEngine, EngineConfig, EngineError};
use dbdedup_storage::oplog::{decode_batch, encode_batch};

/// Transport-level counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetworkStats {
    /// Batches shipped primary → secondary.
    pub batches: u64,
    /// Total frame bytes transferred.
    pub bytes: u64,
    /// Oplog entries replicated.
    pub entries: u64,
}

/// A primary and a secondary engine joined by an in-process "wire".
///
/// [`ReplicaPair::sync`] drains the primary's oplog through the encoded
/// batch format — the same bytes a TCP transport would carry — so
/// `network_stats().bytes` is exactly the replication traffic the paper's
//  Fig. 11 reports.
pub struct ReplicaPair {
    /// The write-serving node.
    pub primary: DedupEngine,
    /// The asynchronous replica.
    pub secondary: DedupEngine,
    batch_budget: usize,
    net: NetworkStats,
}

impl ReplicaPair {
    /// Default oplog batch threshold (bytes), as a stand-in for MongoDB's
    /// batch shipping.
    pub const DEFAULT_BATCH_BYTES: usize = 1 << 20;

    /// Creates a pair of engines with identical configuration over
    /// temporary stores.
    pub fn open_temp(config: EngineConfig) -> Result<Self, EngineError> {
        Ok(Self {
            primary: DedupEngine::open_temp(config.clone())?,
            secondary: DedupEngine::open_temp(config)?,
            batch_budget: Self::DEFAULT_BATCH_BYTES,
            net: NetworkStats::default(),
        })
    }

    /// Overrides the batch size threshold.
    pub fn with_batch_bytes(mut self, bytes: usize) -> Self {
        self.batch_budget = bytes;
        self
    }

    /// Ships every pending oplog entry to the secondary. Returns the
    /// number of entries replicated.
    pub fn sync(&mut self) -> Result<u64, EngineError> {
        let mut shipped = 0u64;
        loop {
            let batch = self.primary.take_oplog_batch(self.batch_budget);
            if batch.is_empty() {
                // The secondary applied everything synchronously, so the
                // whole retained window is acknowledged and may trim.
                let head = self.primary.oplog_next_lsn();
                self.primary.oplog_ack_shipped(head);
                return Ok(shipped);
            }
            // Serialize exactly as a network transport would.
            let frame = encode_batch(&batch);
            self.net.batches += 1;
            self.net.bytes += frame.len() as u64;
            self.net.entries += batch.len() as u64;
            let decoded = decode_batch(&frame).expect("self-encoded frame is valid");
            for entry in &decoded {
                self.secondary.apply_oplog_entry(entry)?;
            }
            shipped += decoded.len() as u64;
        }
    }

    /// Runs one anti-entropy pass, re-materializing every secondary record
    /// that diverged from the primary (see [`crate::resync::anti_entropy`]).
    /// Repair payload bytes count as network traffic.
    pub fn resync(&mut self) -> Result<crate::resync::ResyncReport, EngineError> {
        let report = crate::resync::anti_entropy(&mut self.primary, &mut self.secondary)?;
        self.net.bytes += report.shipped_bytes;
        Ok(report)
    }

    /// Network counters.
    pub fn network_stats(&self) -> NetworkStats {
        self.net
    }

    /// Flushes both replicas' write-back caches (end-of-run accounting).
    pub fn flush_both(&mut self) -> Result<(), EngineError> {
        self.primary.flush_all_writebacks()?;
        self.secondary.flush_all_writebacks()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdedup_util::ids::RecordId;
    use dbdedup_workloads::{Op, Wikipedia};

    fn pair() -> ReplicaPair {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        ReplicaPair::open_temp(cfg).unwrap()
    }

    #[test]
    fn replicas_converge_on_wikipedia_slice() {
        let mut p = pair();
        let mut ids = Vec::new();
        for op in Wikipedia::insert_only(60, 1) {
            if let Op::Insert { id, data } = op {
                p.primary.insert("wikipedia", id, &data).unwrap();
                ids.push(id);
            }
        }
        p.sync().unwrap();
        p.flush_both().unwrap();
        for id in ids {
            assert_eq!(
                &p.primary.read(id).unwrap()[..],
                &p.secondary.read(id).unwrap()[..],
                "record {id} diverged"
            );
        }
        // Byte-identical storage footprints.
        assert_eq!(
            p.primary.store().stored_payload_bytes(),
            p.secondary.store().stored_payload_bytes()
        );
    }

    #[test]
    fn network_traffic_is_compressed() {
        let mut p = pair();
        let mut original = 0u64;
        for op in Wikipedia::insert_only(80, 3) {
            if let Op::Insert { id, data } = op {
                original += data.len() as u64;
                p.primary.insert("wikipedia", id, &data).unwrap();
            }
        }
        p.sync().unwrap();
        let net = p.network_stats();
        assert!(net.entries == 80);
        let ratio = original as f64 / net.bytes as f64;
        assert!(ratio > 3.0, "network compression ratio {ratio:.2}");
    }

    #[test]
    fn incremental_syncs_ship_only_new_entries() {
        let mut p = pair();
        p.primary.insert("db", RecordId(1), &vec![b'a'; 10_000]).unwrap();
        assert_eq!(p.sync().unwrap(), 1);
        assert_eq!(p.sync().unwrap(), 0, "nothing new to ship");
        p.primary.insert("db", RecordId(2), &vec![b'b'; 10_000]).unwrap();
        assert_eq!(p.sync().unwrap(), 1);
        assert_eq!(p.network_stats().batches, 2);
    }

    #[test]
    fn updates_and_deletes_replicate() {
        let mut p = pair();
        p.primary.insert("db", RecordId(1), &vec![b'x'; 5_000]).unwrap();
        p.primary.insert("db", RecordId(2), &vec![b'y'; 5_000]).unwrap();
        p.primary.update(RecordId(1), b"updated content").unwrap();
        p.primary.delete(RecordId(2)).unwrap();
        p.sync().unwrap();
        assert_eq!(&p.secondary.read(RecordId(1)).unwrap()[..], b"updated content");
        assert!(p.secondary.read(RecordId(2)).is_err());
    }

    #[test]
    fn small_batch_budget_multiplies_batches() {
        let mut p = pair().with_batch_bytes(256);
        for i in 0..10u64 {
            p.primary.insert("db", RecordId(i), &vec![i as u8; 1_000]).unwrap();
        }
        p.sync().unwrap();
        assert!(p.network_stats().batches >= 10, "batches {}", p.network_stats().batches);
    }
}
