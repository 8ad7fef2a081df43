//! Trace files: the data PYTHIA saves at the end of the reference execution
//! and reloads on subsequent executions.
//!
//! Only the *grammar* is stored, never the unfolded trace (paper §II-A,
//! Fig. 1), plus the timing model derived from the timestamps and the event
//! registry mapping descriptors to terminal ids. There is one on-disk
//! format: a compact, versioned binary one, hand-rolled on [`bytes`] with
//! explicit bounds checks so truncated or corrupt files fail with a clean
//! [`Error::Corrupt`] instead of a panic. Version 2 appends a whole-payload
//! CRC32, so silent corruption — a short write a lying disk reported as
//! complete, bit rot — is detected before parsing; version-1 files (no
//! checksum) are refused. The human-readable view of a trace is
//! [`Grammar::render`], the paper's Fig. 7 form.
//!
//! Writes are crash-safe: [`TraceData::save`] goes through
//! [`crate::persist::atomic_write`] (tmp file + fsync + rename +
//! parent-dir fsync), so a crash mid-save leaves the previous file intact,
//! never a torn mix. Interrupted recordings are rebuilt with
//! [`TraceData::recover`] from the [`crate::persist`] journal/checkpoint
//! sidecars.

use std::path::Path;
use std::sync::{Arc, OnceLock};

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::{Error, Result};
use crate::event::EventRegistry;
use crate::grammar::{Grammar, GrammarIndex};
use crate::persist::crc::crc32;
use crate::persist::RecoverReport;
use crate::timing::TimingModel;
use crate::wire;

/// Magic bytes opening every binary trace file.
pub const MAGIC: &[u8; 8] = b"PYTHIA\x00\x01";
/// Current binary format version: version 2 appends a CRC32 over the
/// whole preceding file as the last 4 bytes.
pub const FORMAT_VERSION: u32 = 2;
/// Oldest binary format version still readable: version 1 had no
/// trailing checksum, and nothing is loaded without one.
pub const MIN_FORMAT_VERSION: u32 = 2;

/// The recorded behavior of one thread: its grammar (compacted), timing
/// model, and total event count.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// The compacted grammar describing the thread's event sequence.
    pub grammar: Grammar,
    /// Mean inter-event durations per progress-sequence context.
    pub timing: TimingModel,
    /// Number of events the grammar unfolds to.
    pub event_count: u64,
    /// Precomputed query layer over `grammar`, built lazily and shared by
    /// every predictor over this trace. Never serialized: it is derived
    /// data, rebuilt from the grammar after loading.
    index: OnceLock<Arc<GrammarIndex>>,
}

impl ThreadTrace {
    /// Assembles a thread trace. The grammar must be compacted (this is
    /// what [`crate::record::Recorder::finish_thread`] and the trace
    /// loaders produce).
    pub fn new(grammar: Grammar, timing: TimingModel, event_count: u64) -> Self {
        ThreadTrace {
            grammar,
            timing,
            event_count,
            index: OnceLock::new(),
        }
    }

    /// The precomputed query layer over this thread's grammar, built on
    /// first use and shared by all predictors (`Arc`). The grammar is
    /// immutable once inside a `ThreadTrace`, so the index never goes
    /// stale.
    pub fn index(&self) -> Arc<GrammarIndex> {
        Arc::clone(
            self.index
                .get_or_init(|| Arc::new(GrammarIndex::build(&self.grammar))),
        )
    }
}

/// A complete reference-execution trace: one [`ThreadTrace`] per thread
/// plus the shared [`EventRegistry`].
#[derive(Debug, Clone)]
pub struct TraceData {
    threads: Vec<Arc<ThreadTrace>>,
    registry: EventRegistry,
}

impl TraceData {
    /// Assembles a trace from per-thread recordings, prebuilding each
    /// thread's [`GrammarIndex`] so predictors never pay for it on the hot
    /// path (the loaders and the recorder all go through here).
    pub fn from_threads(threads: Vec<ThreadTrace>, registry: EventRegistry) -> Self {
        let threads: Vec<Arc<ThreadTrace>> = threads.into_iter().map(Arc::new).collect();
        for t in &threads {
            t.index();
        }
        TraceData { threads, registry }
    }

    /// Number of recorded threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The trace of thread `i`.
    pub fn thread(&self, i: usize) -> Result<&Arc<ThreadTrace>> {
        self.threads.get(i).ok_or(Error::NoSuchThread(i))
    }

    /// All thread traces.
    pub fn threads(&self) -> &[Arc<ThreadTrace>] {
        &self.threads
    }

    /// The event registry shared by all threads.
    pub fn registry(&self) -> &EventRegistry {
        &self.registry
    }

    /// Total events across threads (Table I's "# events").
    pub fn total_events(&self) -> u64 {
        self.threads.iter().map(|t| t.event_count).sum()
    }

    /// Mean number of grammar rules across threads (Table I's "# rules").
    pub fn mean_rule_count(&self) -> f64 {
        if self.threads.is_empty() {
            return 0.0;
        }
        let total: usize = self.threads.iter().map(|t| t.grammar.rule_count()).sum();
        total as f64 / self.threads.len() as f64
    }

    // ------------------------------------------------------------------
    // Binary format
    // ------------------------------------------------------------------

    /// Serializes to the binary format (version [`FORMAT_VERSION`]): the
    /// last 4 bytes are a CRC32 over everything before them.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(FORMAT_VERSION);
        wire::put_registry(&mut buf, &self.registry);
        // Threads.
        buf.put_u32_le(self.threads.len() as u32);
        for t in &self.threads {
            buf.put_u64_le(t.event_count);
            wire::put_grammar(&mut buf, &t.grammar);
            wire::put_timing(&mut buf, &t.timing);
        }
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf.freeze()
    }

    /// Deserializes from the binary format.
    ///
    /// Strict: beyond the structural validation every load performs (bounds,
    /// acyclicity, the version-2 whole-payload checksum), the grammar
    /// linter must find no error-level violation — digram duplicates,
    /// unmerged runs, refcount mismatches, or a grammar whose expansion
    /// disagrees with the declared event count are rejected as
    /// [`Error::Corrupt`] instead of being silently fed to the predictor.
    /// Use [`TraceData::from_bytes_lenient`] to load such a file anyway
    /// (e.g. to analyze *why* it is corrupt).
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let trace = Self::from_bytes_lenient(data)?;
        trace.lint_strict()?;
        Ok(trace)
    }

    /// Deserializes from the binary format with structural validation only
    /// (no invariant lint): accepts corrupt-but-parseable grammars so tools
    /// like `pythia-analyze` can diagnose them. The version-2 checksum is
    /// still enforced — a file that fails it is damaged, not diagnosable —
    /// and so are the structural checks: bounds, acyclic rule references,
    /// and no repeated registry descriptor or timing key.
    pub fn from_bytes_lenient(data: &[u8]) -> Result<Self> {
        let mut header: &[u8] = data;
        let buf = &mut header;
        let magic = wire::take(buf, MAGIC.len())?;
        if magic != MAGIC {
            return Err(Error::BadMagic);
        }
        let version = wire::get_u32(buf)?;
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(Error::UnsupportedVersion(version));
        }
        // The trailing CRC32 covers the whole file before it.
        if buf.len() < 4 {
            return Err(Error::Corrupt("file too short for checksum".into()));
        }
        let crc_offset = data.len() - 4;
        let mut crc_bytes: &[u8] = &data[crc_offset..];
        let stored = wire::get_u32(&mut crc_bytes)?;
        if crc32(&data[..crc_offset]) != stored {
            return Err(Error::Corrupt(
                "checksum mismatch: file is truncated or corrupt".into(),
            ));
        }
        let mut body: &[u8] = &buf[..buf.len() - 4];
        Self::parse_body(&mut body)
    }

    /// Parses the body between header and checksum: registry, then threads.
    fn parse_body(buf: &mut &[u8]) -> Result<Self> {
        let registry = wire::get_registry(buf)?;
        let n_threads = wire::get_u32(buf)? as usize;
        // A thread needs at least an event count (8), a one-rule grammar
        // (4 + 8) and an empty timing table (4): 24 bytes.
        if n_threads > 1 << 20 || n_threads > buf.len() / 24 {
            return Err(Error::Corrupt(format!(
                "implausible thread count {n_threads} for {} remaining bytes",
                buf.len()
            )));
        }
        // Cap pre-allocation: a corrupt length field must not trigger a huge
        // allocation before the data runs out.
        let mut threads = Vec::with_capacity(n_threads.min(1024));
        for _ in 0..n_threads {
            let event_count = wire::get_u64(buf)?;
            let grammar = wire::get_grammar(buf)?;
            let timing = wire::get_timing(buf)?;
            threads.push(ThreadTrace::new(grammar, timing, event_count));
        }
        if !buf.is_empty() {
            return Err(Error::Corrupt(format!(
                "{} trailing bytes after trace data",
                buf.len()
            )));
        }
        Ok(TraceData::from_threads(threads, registry))
    }

    /// Saves the binary format to `path` atomically: a crash mid-save
    /// leaves the previous file (if any) intact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        crate::persist::atomic_write(path.as_ref(), &self.to_bytes())
    }

    /// Loads the binary format from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let data = std::fs::read(path)?;
        Self::from_bytes(&data)
    }

    /// Recovers an interrupted recording from the durability sidecars of
    /// the trace at `path` (`<path>.r<k>.journal` / `<path>.r<k>.ckpt`,
    /// written by a [`crate::record::Recorder`] in durable mode).
    ///
    /// If the finalized trace file itself is intact it is simply loaded
    /// (recovery after a crash *between* save and sidecar cleanup).
    /// Otherwise each rank is rebuilt by replaying its newest valid
    /// checkpoint plus the journal suffix through a fresh recorder —
    /// producing a grammar byte-identical to re-recording the journaled
    /// prefix — with torn tails truncated and reported in the
    /// [`RecoverReport`].
    pub fn recover(path: impl AsRef<Path>) -> Result<(Self, RecoverReport)> {
        crate::persist::recover_trace(path.as_ref())
    }

    // ------------------------------------------------------------------
    // World resize
    // ------------------------------------------------------------------

    /// Remaps this trace's per-rank grammars onto a world of `new_size`
    /// ranks (elastic resize: reuse a recorded reference execution after
    /// the job was grown or shrunk).
    ///
    /// The sizes must divide (`new_size % R == 0` or `R % new_size == 0`
    /// where `R` is the recorded world size). New rank `j` takes recorded
    /// rank `j % R` as its source, and point-to-point peers are rewritten
    /// *blockwise*:
    ///
    /// * **growing** (`new_size = m·R`): the new world is `m` independent
    ///   copies of the recorded one — rank `j` lives in block `j / R`
    ///   and its peers move to the same block, `peer' = (j/R)·R + peer`.
    ///   Every matched send/recv pair of the original stays matched
    ///   inside its block (a naive rank-offset lift would not survive
    ///   this: a sender's `+d` and its receiver's `R−d` lift to
    ///   inconsistent offsets in the larger ring);
    /// * **shrinking** (`R = m·new_size`): ranks `0..new_size` keep
    ///   their recorded streams and peers fold onto the survivors,
    ///   `peer' = peer % new_size` — exact for rank-symmetric patterns
    ///   (rings, stencils), and anything else is caught by the verifier.
    ///
    /// Wildcard receives (`MPI_ANY_SOURCE`, payload −1) and collective
    /// payloads (roots, reduction ops — their token must stay identical
    /// across ranks) are left untouched.
    ///
    /// The remapped trace is checked by the protocol verifier before
    /// being returned: any error-level diagnostic (unmatched sends,
    /// peer out of range, collective divergence) rejects the remap as
    /// [`Error::InvariantViolation`]. Timing models are dropped — the
    /// new world has no measured timings.
    ///
    /// A round trip `R → R' → R` reproduces the original per-rank
    /// grammars exactly: the surviving ranks are block 0 of the grown
    /// world, whose peers were never moved, and re-recording the
    /// identical event stream through the deterministic reducer yields
    /// the identical grammar.
    pub fn remap_ranks(&self, new_size: usize) -> Result<TraceData> {
        use crate::analyze::protocol::{profile_from_grammar, verify, ClassTable};
        use crate::analyze::Severity;
        use crate::record::{RecordConfig, Recorder};

        let old_size = self.threads.len();
        if old_size == 0 {
            return Err(Error::InvalidConfig("cannot remap an empty trace".into()));
        }
        if new_size == 0
            || (!new_size.is_multiple_of(old_size) && !old_size.is_multiple_of(new_size))
        {
            return Err(Error::InvalidConfig(format!(
                "cannot remap {old_size} ranks onto {new_size}: sizes must divide"
            )));
        }
        // EventIds stay stable: the registry is extended, never reordered,
        // so an identity or round-trip remap reuses the original ids and
        // reproduces byte-identical grammars.
        let mut registry = self.registry.clone();
        let mut threads = Vec::with_capacity(new_size);
        for j in 0..new_size {
            let r = j % old_size;
            let events = self.threads[r].grammar.unfold();
            let mut rec = Recorder::new(RecordConfig {
                timestamps: false,
                validate: false,
            });
            for &e in &events {
                rec.record(remap_event(&mut registry, e, j, old_size, new_size));
            }
            threads.push(rec.finish_thread()?);
        }
        let out = TraceData::from_threads(threads, registry);
        let classes = ClassTable::from_registry(out.registry());
        let profiles: Vec<_> = out
            .threads
            .iter()
            .map(|t| profile_from_grammar(&t.grammar, &classes))
            .collect();
        if let Some(d) = verify(&profiles)
            .iter()
            .find(|d| d.severity == Severity::Error)
        {
            return Err(Error::InvariantViolation(format!(
                "remap {old_size} -> {new_size} fails protocol verification: {}",
                d.message
            )));
        }
        Ok(out)
    }

    /// Runs the grammar linter over every thread and rejects the trace on
    /// the first error-level violation.
    fn lint_strict(&self) -> Result<()> {
        use crate::analyze::{lint::lint_indexed, LintOptions, Severity};
        for (i, t) in self.threads.iter().enumerate() {
            let diags = lint_indexed(
                &t.grammar,
                &LintOptions {
                    expected_events: Some(t.event_count),
                    // The error is all a strict load reports: no
                    // event-position annotation.
                    annotate_positions: false,
                },
                Some(&t.index()),
            );
            if let Some(d) = diags.iter().find(|d| d.severity == Severity::Error) {
                return Err(Error::Corrupt(format!(
                    "thread {i} grammar violates invariants: {}",
                    d.message
                )));
            }
        }
        Ok(())
    }
}

/// Rewrites one event for [`TraceData::remap_ranks`]: point-to-point
/// peers move by rank-relative offset; everything else keeps its id.
fn remap_event(
    registry: &mut EventRegistry,
    e: crate::event::EventId,
    j: usize,
    old_size: usize,
    new_size: usize,
) -> crate::event::EventId {
    use crate::analyze::protocol::{classify, EventClass};
    let Some(desc) = registry.describe(e) else {
        return e; // id outside the registry: nothing to rewrite
    };
    let (name, payload) = (desc.name.clone(), desc.payload);
    let peer = match classify(&name, payload) {
        EventClass::Send { dest, .. } | EventClass::SendRecv { dest } => dest,
        EventClass::Recv { source, .. } => source,
        _ => return e,
    };
    // Wildcards (−1) and out-of-range peers (the verifier's business,
    // not ours) pass through unchanged.
    if peer < 0 || peer >= old_size as i64 {
        return e;
    }
    let mapped = if new_size >= old_size {
        // Grow: the peer moves into this rank's block.
        ((j / old_size) * old_size + peer as usize) as i64
    } else {
        // Shrink: the peer folds onto the surviving ranks.
        (peer as usize % new_size) as i64
    };
    if Some(mapped) == payload {
        e
    } else {
        registry.intern(&name, Some(mapped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{RuleId, Symbol};
    use crate::record::{RecordConfig, Recorder};
    use crate::timing::TimingEntry;

    fn sample_trace() -> TraceData {
        let mut registry = EventRegistry::new();
        let a = registry.intern("MPI_Send", Some(1));
        let b = registry.intern("MPI_Recv", Some(0));
        let c = registry.intern("MPI_Barrier", None);
        let mut rec = Recorder::new(RecordConfig::default());
        let mut t = 0u64;
        for _ in 0..20 {
            for ev in [a, b, b, c] {
                t += 100;
                rec.record_at(ev, t);
            }
        }
        rec.finish(&registry).unwrap()
    }

    #[test]
    fn binary_roundtrip() {
        let trace = sample_trace();
        let bytes = trace.to_bytes();
        let loaded = TraceData::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.thread_count(), 1);
        assert_eq!(loaded.total_events(), trace.total_events());
        assert_eq!(
            loaded.thread(0).unwrap().grammar.unfold(),
            trace.thread(0).unwrap().grammar.unfold()
        );
        assert!(loaded.registry().lookup("MPI_Send", Some(1)).is_some());
    }

    /// Thread 0 of [`sample_trace`] taken apart for re-encoding.
    struct Parts {
        descs: Vec<(String, Option<i64>)>,
        grammar: Grammar,
        timing: Vec<TimingEntry>,
        event_count: u64,
    }

    /// [`sample_trace`] re-encoded after `edit` changed its parts, with the
    /// trailing CRC recomputed: a load that fails, fails on the edit and not
    /// on the checksum. Encoded by hand because [`TraceData::from_threads`]
    /// would index a cyclic grammar.
    fn edited(edit: impl FnOnce(&mut Parts)) -> Vec<u8> {
        let trace = sample_trace();
        let t = trace.thread(0).unwrap();
        let mut p = Parts {
            descs: trace
                .registry()
                .iter()
                .map(|(_, d)| (d.name.clone(), d.payload))
                .collect(),
            grammar: t.grammar.clone(),
            timing: t.timing.entries().to_vec(),
            event_count: t.event_count,
        };
        edit(&mut p);
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(FORMAT_VERSION);
        buf.put_u32_le(p.descs.len() as u32);
        for (name, payload) in &p.descs {
            wire::put_desc(&mut buf, name, *payload);
        }
        buf.put_u32_le(1);
        buf.put_u64_le(p.event_count);
        wire::put_grammar(&mut buf, &p.grammar);
        wire::put_timing(&mut buf, &TimingModel::from_entries(p.timing));
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf.to_vec()
    }

    /// Both loaders reject `bytes` as corrupt.
    fn assert_corrupt(bytes: &[u8]) {
        assert!(matches!(
            TraceData::from_bytes(bytes),
            Err(Error::Corrupt(_))
        ));
        assert!(matches!(
            TraceData::from_bytes_lenient(bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn file_roundtrip() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join("pythia-core-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pythia");
        trace.save(&path).unwrap();
        let loaded = TraceData::load(&path).unwrap();
        assert_eq!(loaded.total_events(), trace.total_events());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let err = TraceData::from_bytes(b"NOTPYTHIA-AT-ALL....").unwrap_err();
        assert!(matches!(err, Error::BadMagic));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let trace = sample_trace();
        let bytes = trace.to_bytes();
        // Every possible truncation must fail cleanly (never panic).
        for cut in 0..bytes.len() {
            let res = TraceData::from_bytes(&bytes[..cut]);
            assert!(res.is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let trace = sample_trace();
        let mut bytes = trace.to_bytes().to_vec();
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            TraceData::from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        let trace = sample_trace();
        let mut bytes = trace.to_bytes().to_vec();
        bytes[8] = 99; // little-endian version field follows the magic
        assert!(matches!(
            TraceData::from_bytes(&bytes),
            Err(Error::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn v1_files_without_checksum_are_rejected() {
        // A version-1 file is exactly a version-2 file minus the trailing
        // CRC, with the version field set to 1.
        let trace = sample_trace();
        let mut bytes = trace.to_bytes().to_vec();
        bytes.truncate(bytes.len() - 4);
        bytes[8] = 1;
        assert!(matches!(
            TraceData::from_bytes(&bytes),
            Err(Error::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn single_byte_corruption_fails_checksum() {
        let trace = sample_trace();
        let bytes = trace.to_bytes().to_vec();
        // Flip one bit in every byte of the body in turn: the trailing
        // CRC32 must catch each one (magic/version corruption is caught
        // by their own checks first).
        for pos in 12..bytes.len() - 4 {
            let mut m = bytes.clone();
            m[pos] ^= 0x10;
            let err = TraceData::from_bytes_lenient(&m).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "flip at {pos}: {err}");
        }
    }

    #[test]
    fn cyclic_grammar_rejected() {
        // Rule 1 references itself.
        assert_corrupt(&edited(|p| {
            let rule = p.grammar.rules[1].as_mut().unwrap();
            rule.body[0].symbol = Symbol::Rule(RuleId(1));
        }));
    }

    #[test]
    fn dangling_rule_reference_rejected() {
        // The root points at a rule far out of range.
        assert_corrupt(&edited(|p| {
            let root = p.grammar.rules[0].as_mut().unwrap();
            root.body[0].symbol = Symbol::Rule(RuleId(999));
        }));
    }

    /// `root → R1^m`, `R1 → R2^m`, `R2 → R3^m`, `R3 → a b` with
    /// `m = u32::MAX`: 2·m³ events, past `u64::MAX`, declared as
    /// `event_count`.
    fn overflowing(event_count: u64) -> Vec<u8> {
        use crate::event::EventId;
        use crate::grammar::{Rule, SymbolUse};
        let chain = |to: u32| Rule {
            body: vec![SymbolUse::new(Symbol::Rule(RuleId(to)), u32::MAX)],
            refcount: u32::MAX,
        };
        edited(|p| {
            p.grammar.rules = vec![
                Some(Rule {
                    refcount: 0,
                    ..chain(1)
                }),
                Some(chain(2)),
                Some(chain(3)),
                Some(Rule {
                    body: vec![
                        SymbolUse::new(Symbol::Terminal(EventId(0)), 1),
                        SymbolUse::new(Symbol::Terminal(EventId(1)), 1),
                    ],
                    refcount: u32::MAX,
                }),
            ];
            p.event_count = event_count;
        })
    }

    #[test]
    fn expansion_past_u64_rejected() {
        assert_corrupt(&overflowing(12_345));
        // The length a wrapping count would compute: 2·m³ mod 2⁶⁴.
        let m = u32::MAX as u64;
        let wrapped = m.wrapping_mul(m).wrapping_mul(m).wrapping_mul(2);
        assert_eq!(wrapped, 25_769_803_774);
        assert_corrupt(&overflowing(wrapped));
    }

    #[test]
    fn duplicate_registry_descriptor_rejected() {
        // Interning would drop the repeat and shift every later id down
        // one: id 2, declared `MPI_Recv(0)`, would load as `MPI_Barrier`.
        assert_corrupt(&edited(|p| {
            let first = p.descs[0].clone();
            p.descs.insert(1, first);
        }));
    }

    #[test]
    fn duplicate_timing_key_rejected() {
        // The index could serve only one of the two buckets.
        assert_corrupt(&edited(|p| p.timing.push(p.timing[0])));
    }

    #[test]
    fn strict_load_rejects_what_lenient_accepts() {
        // Duplicate a digram in a rule body: the file still parses and is
        // structurally sound (no cycles, live references), but violates the
        // reduction invariants — exactly the shape a fault-injected
        // serialization can produce.
        let bytes = edited(|p| {
            let body = p
                .grammar
                .rules
                .iter_mut()
                .map(|r| &mut r.as_mut().unwrap().body)
                .find(|b| b.len() >= 2)
                .expect("some rule has at least two body entries");
            let (a, b) = (body[0], body[1]);
            body.extend([a, b]);
        });
        assert!(matches!(
            TraceData::from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
        let lenient = TraceData::from_bytes_lenient(&bytes).unwrap();
        assert_eq!(lenient.thread_count(), 1);
    }

    #[test]
    fn strict_load_rejects_event_count_mismatch() {
        let bytes = edited(|p| p.event_count = 123456);
        assert!(matches!(
            TraceData::from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
        assert!(TraceData::from_bytes_lenient(&bytes).is_ok());
    }

    #[test]
    fn missing_thread_lookup_fails() {
        let trace = sample_trace();
        assert!(matches!(trace.thread(5), Err(Error::NoSuchThread(5))));
    }

    /// A ring world: each rank sends to its successor, receives from its
    /// predecessor, then synchronizes — the canonical remappable topology.
    fn ring_trace(size: usize) -> TraceData {
        let mut registry = EventRegistry::new();
        let mut threads = Vec::new();
        for r in 0..size {
            let next = ((r + 1) % size) as i64;
            let prev = ((r + size - 1) % size) as i64;
            let send = registry.intern("MPI_Send", Some(next));
            let recv = registry.intern("MPI_Recv", Some(prev));
            let barrier = registry.intern("MPI_Barrier", None);
            let mut rec = Recorder::new(RecordConfig {
                timestamps: false,
                validate: false,
            });
            for _ in 0..10 {
                rec.record(send);
                rec.record(recv);
                rec.record(barrier);
            }
            threads.push(rec.finish_thread().unwrap());
        }
        TraceData::from_threads(threads, registry)
    }

    #[test]
    fn remap_grow_replicates_ring_blockwise() {
        let t = ring_trace(4);
        let m = t.remap_ranks(8).unwrap();
        assert_eq!(m.thread_count(), 8);
        for j in 0..8usize {
            let (block, r) = (j / 4, j % 4);
            let events = m.thread(j).unwrap().grammar.unfold();
            assert_eq!(events.len() as u64, m.thread(j).unwrap().event_count);
            let desc = m.registry().describe(events[0]).unwrap();
            assert_eq!(desc.name, "MPI_Send");
            // The successor within this rank's block.
            assert_eq!(desc.payload, Some((block * 4 + (r + 1) % 4) as i64));
            let desc = m.registry().describe(events[1]).unwrap();
            assert_eq!(desc.name, "MPI_Recv");
            assert_eq!(desc.payload, Some((block * 4 + (r + 3) % 4) as i64));
        }
    }

    #[test]
    fn remap_identity_is_exact() {
        let t = ring_trace(3);
        let m = t.remap_ranks(3).unwrap();
        assert_eq!(m.registry().len(), t.registry().len());
        for r in 0..3 {
            assert_eq!(m.thread(r).unwrap().grammar, t.thread(r).unwrap().grammar);
        }
    }

    #[test]
    fn remap_round_trip_is_exact() {
        let t = ring_trace(2);
        let back = t.remap_ranks(4).unwrap().remap_ranks(2).unwrap();
        assert_eq!(back.thread_count(), 2);
        for r in 0..2 {
            assert_eq!(
                back.thread(r).unwrap().grammar,
                t.thread(r).unwrap().grammar,
                "rank {r} grammar must survive the round trip"
            );
            assert_eq!(
                back.thread(r).unwrap().event_count,
                t.thread(r).unwrap().event_count
            );
        }
    }

    #[test]
    fn remap_shrink_passes_verifier() {
        let t = ring_trace(4);
        let m = t.remap_ranks(2).unwrap();
        assert_eq!(m.thread_count(), 2);
        // 4→2 folds the ring onto two ranks: each sends to the other.
        let events = m.thread(0).unwrap().grammar.unfold();
        let desc = m.registry().describe(events[0]).unwrap();
        assert_eq!((desc.name.as_str(), desc.payload), ("MPI_Send", Some(1)));
    }

    #[test]
    fn remap_rejects_indivisible_and_empty() {
        let t = ring_trace(3);
        assert!(matches!(t.remap_ranks(2), Err(Error::InvalidConfig(_))));
        assert!(matches!(t.remap_ranks(0), Err(Error::InvalidConfig(_))));
        assert!(t.remap_ranks(6).is_ok());
    }

    #[test]
    fn multi_thread_totals() {
        let mut registry = EventRegistry::new();
        let a = registry.intern("a", None);
        let mk = |n: u64| {
            let mut rec = Recorder::new(RecordConfig {
                timestamps: false,
                validate: false,
            });
            for _ in 0..n {
                rec.record(a);
            }
            rec.finish_thread().unwrap()
        };
        let trace = TraceData::from_threads(vec![mk(10), mk(20)], registry);
        assert_eq!(trace.thread_count(), 2);
        assert_eq!(trace.total_events(), 30);
        assert!(trace.mean_rule_count() >= 1.0);
        let bytes = trace.to_bytes();
        let loaded = TraceData::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.total_events(), 30);
    }
}
