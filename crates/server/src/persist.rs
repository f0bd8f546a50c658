//! Outcome-cache persistence: an append-only `SKS1` snapshot file.
//!
//! The serving layer appends one checksummed record per freshly computed
//! cacheable outcome (`spec::wire::encode_snapshot_record`), and on start
//! replays the file to pre-warm the outcome tier, so a restart keeps the
//! warm hit rate of the previous process.
//!
//! Loading is deliberately *tolerant where the bytes are damaged and
//! strict where they are wrong*:
//!
//! - A header whose configuration fingerprint differs from the running
//!   server's (different planner settings or crate version) means every
//!   record could replay a stale answer — the file is truncated and the
//!   server cold-starts.
//! - A corrupt or torn tail (kill -9 mid-append, disk bit flip) fails a
//!   record checksum; the valid prefix loads, and the file is truncated
//!   back to that prefix so subsequent appends extend a well-formed file.
//! - Every payload must still decode as `SKO1` before it is trusted; a
//!   record that passes its checksum but not the outcome codec is treated
//!   as the end of the valid prefix. A loaded cache never serves a byte
//!   sequence the wire codec would reject.

use crate::flight::OutcomeClass;
use sekitei_planner::PlannerConfig;
use sekitei_spec::{
    decode_outcome, decode_snapshot_header, decode_snapshot_record, encode_snapshot_header,
    encode_snapshot_record, WireSnapshotRecord, SNAPSHOT_HEADER_LEN,
};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

/// One pre-warmed cache entry recovered from a snapshot file.
#[derive(Debug, Clone)]
pub struct LoadedOutcome {
    /// The cache key (content hash of the problem bytes).
    pub key: u64,
    /// Outcome class of the cached bytes.
    pub class: OutcomeClass,
    /// Reachability-graph node count recorded at compute time.
    pub rg_nodes: u64,
    /// The encoded `SKO1` bytes, validated against the outcome codec.
    pub payload: Vec<u8>,
}

/// The compiled-task layout cached certificates are bound to. A
/// certificate names action ids and the task fingerprint, both of which
/// move when the grounder changes which actions it builds; bump this when
/// it does, so that files written before the change cold-start.
const COMPILE_FORMAT: &str = "goal-relevant";

/// Hash the planner configuration, crate version and compile format into
/// the fingerprint a snapshot file is bound to. `PlannerConfig`'s `Debug`
/// form covers every field, so any knob that changes search results
/// (budgets, heuristic, deadline, symmetry, …) invalidates the file, as
/// does a version bump that could change plan encoding or a grounder that
/// builds a different task (`COMPILE_FORMAT`).
pub fn config_fingerprint(cfg: &PlannerConfig) -> u64 {
    let text =
        format!("sks1 v1 | {} | compile {COMPILE_FORMAT} | {cfg:?}", env!("CARGO_PKG_VERSION"));
    crate::cache::content_hash(text.as_bytes())
}

/// Result of opening a snapshot file: the pre-warmed entries plus the
/// appender for new outcomes.
pub struct SnapshotFile {
    /// Entries recovered from the valid prefix (empty on cold start).
    pub loaded: Vec<LoadedOutcome>,
    /// Appender positioned at the end of the valid prefix.
    pub appender: SnapshotAppender,
}

/// Serialized appender for snapshot records. One mutex for the whole
/// file keeps records atomic with respect to each other; appends happen
/// only on the cold compute path (once per distinct problem), so the
/// lock is nowhere near the warm hot path.
pub struct SnapshotAppender {
    writer: Mutex<BufWriter<File>>,
}

impl SnapshotAppender {
    /// Append one computed outcome; flushed immediately so a crash loses
    /// at most the record being written (which the checksum then drops on
    /// the next load).
    pub fn append(&self, key: u64, class: OutcomeClass, rg_nodes: u64, payload: &[u8]) {
        let record = WireSnapshotRecord {
            key,
            class: class_ordinal(class),
            rg_nodes,
            payload: payload.to_vec(),
        };
        let bytes = encode_snapshot_record(&record);
        let mut w = self.writer.lock().unwrap();
        // a failed append degrades persistence, never serving
        let _ = w.write_all(&bytes).and_then(|_| w.flush());
    }
}

fn class_ordinal(class: OutcomeClass) -> u8 {
    match class {
        OutcomeClass::Exact => 0,
        OutcomeClass::Degraded => 1,
        OutcomeClass::Cached => 2,
        OutcomeClass::BudgetExhausted => 3,
        OutcomeClass::DeadlineHit => 4,
        OutcomeClass::Error => 5,
    }
}

fn class_from_ordinal(v: u8) -> Option<OutcomeClass> {
    Some(match v {
        0 => OutcomeClass::Exact,
        1 => OutcomeClass::Degraded,
        2 => OutcomeClass::Cached,
        3 => OutcomeClass::BudgetExhausted,
        4 => OutcomeClass::DeadlineHit,
        5 => OutcomeClass::Error,
        _ => return None,
    })
}

/// Open (or create) a snapshot file for the given configuration
/// fingerprint, load its valid prefix, and return the entries plus an
/// appender positioned after them.
pub fn open_snapshot(path: &Path, fingerprint: u64) -> io::Result<SnapshotFile> {
    // truncate(false): existing contents are the point — the valid prefix
    // is loaded and anything after it cut below
    let mut file =
        OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;

    let mut loaded = Vec::new();
    let valid_len = if bytes.is_empty() {
        // fresh file: write the header now
        file.write_all(&encode_snapshot_header(fingerprint))?;
        SNAPSHOT_HEADER_LEN as u64
    } else {
        match decode_snapshot_header(&bytes) {
            Ok(fp) if fp == fingerprint => {
                let mut offset = SNAPSHOT_HEADER_LEN;
                while offset < bytes.len() {
                    match decode_snapshot_record(&bytes[offset..]) {
                        Ok((record, used)) => {
                            let Some(class) = class_from_ordinal(record.class) else { break };
                            // checksummed bytes must still satisfy the
                            // outcome codec before the cache trusts them
                            if decode_outcome(&record.payload).is_err() {
                                break;
                            }
                            loaded.push(LoadedOutcome {
                                key: record.key,
                                class,
                                rg_nodes: record.rg_nodes,
                                payload: record.payload,
                            });
                            offset += used;
                        }
                        Err(_) => break,
                    }
                }
                offset as u64
            }
            _ => {
                // wrong fingerprint, unknown version, or mangled header:
                // cold start with a fresh header
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(&encode_snapshot_header(fingerprint))?;
                SNAPSHOT_HEADER_LEN as u64
            }
        }
    };

    // drop any corrupt tail so future appends extend a well-formed file
    file.set_len(valid_len)?;
    file.seek(SeekFrom::Start(valid_len))?;
    Ok(SnapshotFile {
        loaded,
        appender: SnapshotAppender { writer: Mutex::new(BufWriter::new(file)) },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sekitei_spec::{encode_outcome, WireOutcome};

    fn sample_payload(bound: f64) -> Vec<u8> {
        encode_outcome(&WireOutcome {
            plan: None,
            best_bound: Some(bound),
            optimality_gap: None,
            stats: Default::default(),
            certificate: None,
        })
        .to_vec()
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sekitei_persist_{tag}_{}.sks", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn roundtrip_across_reopen() {
        let path = tmp_path("roundtrip");
        let fp = 42;
        {
            let snap = open_snapshot(&path, fp).unwrap();
            assert!(snap.loaded.is_empty());
            snap.appender.append(7, OutcomeClass::Exact, 100, &sample_payload(1.5));
            snap.appender.append(9, OutcomeClass::BudgetExhausted, 2000, &sample_payload(3.0));
        }
        let snap = open_snapshot(&path, fp).unwrap();
        assert_eq!(snap.loaded.len(), 2);
        assert_eq!(snap.loaded[0].key, 7);
        assert_eq!(snap.loaded[0].class, OutcomeClass::Exact);
        assert_eq!(snap.loaded[1].key, 9);
        assert_eq!(snap.loaded[1].rg_nodes, 2000);
        assert!(decode_outcome(&snap.loaded[1].payload).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_cold_starts() {
        let path = tmp_path("fingerprint");
        {
            let snap = open_snapshot(&path, 1).unwrap();
            snap.appender.append(7, OutcomeClass::Exact, 1, &sample_payload(1.0));
        }
        // different planner config → nothing loads, file is reset
        let snap = open_snapshot(&path, 2).unwrap();
        assert!(snap.loaded.is_empty());
        drop(snap);
        // and the reset file now carries the *new* fingerprint
        let snap = open_snapshot(&path, 2).unwrap();
        assert!(snap.loaded.is_empty());
        snap.appender.append(8, OutcomeClass::Exact, 1, &sample_payload(2.0));
        drop(snap);
        let snap = open_snapshot(&path, 2).unwrap();
        assert_eq!(snap.loaded.len(), 1);
        assert_eq!(snap.loaded[0].key, 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshots_stamped_before_the_compile_format_tag_cold_start() {
        // outcomes cached before goal-relevant grounding carry certificates
        // bound to the full task's action ids and fingerprint
        let cfg = PlannerConfig::default();
        let text = format!("sks1 v1 | {} | {cfg:?}", env!("CARGO_PKG_VERSION"));
        let old = crate::cache::content_hash(text.as_bytes());
        assert_ne!(old, config_fingerprint(&cfg));
        let path = tmp_path("compile_format");
        {
            let snap = open_snapshot(&path, old).unwrap();
            snap.appender.append(7, OutcomeClass::Exact, 1, &sample_payload(1.0));
        }
        assert_eq!(open_snapshot(&path, old).unwrap().loaded.len(), 1);
        let snap = open_snapshot(&path, config_fingerprint(&cfg)).unwrap();
        assert!(snap.loaded.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_loads_valid_prefix_and_truncates() {
        let path = tmp_path("torn");
        let fp = 9;
        {
            let snap = open_snapshot(&path, fp).unwrap();
            snap.appender.append(1, OutcomeClass::Exact, 10, &sample_payload(1.0));
            snap.appender.append(2, OutcomeClass::Exact, 20, &sample_payload(2.0));
        }
        // tear the last record mid-write
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 11]).unwrap();
        let snap = open_snapshot(&path, fp).unwrap();
        assert_eq!(snap.loaded.len(), 1, "valid prefix only");
        assert_eq!(snap.loaded[0].key, 1);
        // appending after the truncation extends a well-formed file
        snap.appender.append(3, OutcomeClass::Exact, 30, &sample_payload(3.0));
        drop(snap);
        let snap = open_snapshot(&path, fp).unwrap();
        let keys: Vec<u64> = snap.loaded.iter().map(|l| l.key).collect();
        assert_eq!(keys, vec![1, 3]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn seeded_corruption_never_panics_or_serves_garbage() {
        // proptest-style seeded sweep without the dependency: flip bytes
        // at pseudo-random offsets across the whole file; every variant
        // must load cleanly (possibly empty), never panic, and every
        // entry that does load must decode as a valid outcome
        let path = tmp_path("fuzz");
        let fp = 77;
        {
            let snap = open_snapshot(&path, fp).unwrap();
            for k in 0..6u64 {
                snap.appender.append(k, OutcomeClass::Exact, k * 7, &sample_payload(k as f64));
            }
        }
        let pristine = std::fs::read(&path).unwrap();
        let mut state: u64 = 0xDEAD_BEEF_1234_5678;
        for round in 0..64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mut corrupt = pristine.clone();
            let pos = (state % corrupt.len() as u64) as usize;
            corrupt[pos] ^= 1 << (state >> 32 & 7);
            // also test hard truncation every few rounds
            if round % 4 == 0 {
                corrupt.truncate(pos);
            }
            std::fs::write(&path, &corrupt).unwrap();
            let snap = open_snapshot(&path, fp).unwrap();
            for entry in &snap.loaded {
                decode_outcome(&entry.payload).expect("loaded entries always decode");
            }
            assert!(snap.loaded.len() <= 6);
        }
        let _ = std::fs::remove_file(&path);
    }
}
