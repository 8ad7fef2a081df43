//! Per-shard session table: a slab with free-list reuse and
//! generation-tagged handles.
//!
//! A session is a small progress-sequence cursor — a
//! [`pythia_core::predict::Predictor`] over the tenant's Arc-shared
//! [`pythia_core::trace::ThreadTrace`] plus a couple of counters. Each
//! shard keeps its own slab behind its own lock and there is no global
//! table, so a session id must encode *which* shard owns the slot:
//! requests route by the id alone.
//!
//! Handles are generation-tagged: freeing a slot bumps its generation,
//! so a stale id (use-after-close, or a guessed id) is rejected instead
//! of silently touching whatever session reused the slot.

use std::path::PathBuf;
use std::time::Instant;

use pythia_core::persist::EventJournal;
use pythia_core::predict::Predictor;

/// A generation-tagged session handle: `[shard:8][generation:24][slot:32]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u64);

impl SessionId {
    /// Maximum number of shards addressable by a session id.
    pub const MAX_SHARDS: usize = 1 << 8;

    pub(crate) fn pack(shard: usize, generation: u32, slot: u32) -> SessionId {
        debug_assert!(shard < Self::MAX_SHARDS);
        debug_assert!(generation < (1 << 24));
        SessionId(((shard as u64) << 56) | ((generation as u64) << 32) | slot as u64)
    }

    /// The shard this session lives on.
    pub fn shard(self) -> usize {
        (self.0 >> 56) as usize
    }

    pub(crate) fn generation(self) -> u32 {
        ((self.0 >> 32) & 0x00FF_FFFF) as u32
    }

    pub(crate) fn slot(self) -> u32 {
        self.0 as u32
    }
}

/// Durability state of one session: where its observe stream is
/// journaled, if anywhere.
#[derive(Debug, Default)]
pub(crate) enum SessionJournal {
    /// Ephemeral session: state dies with the slab.
    #[default]
    None,
    /// Durable session: served events are appended here before the
    /// response goes out; a restarted server resurrects the session from
    /// this file. Boxed so the (mostly ephemeral) slab slots don't pay
    /// for the writer's buffers.
    Active(Box<EventJournal>, PathBuf),
    /// Durable session whose journal hit a sticky IO error: persistence
    /// stopped (the live session keeps serving), the loss is counted in
    /// the shard's `journal_dropped_events`, and the path is kept so
    /// close still removes the partial file.
    Failed(PathBuf),
}

impl SessionJournal {
    /// The journal file path, for any durable state.
    pub fn path(&self) -> Option<&PathBuf> {
        match self {
            SessionJournal::None => None,
            SessionJournal::Active(_, p) | SessionJournal::Failed(p) => Some(p),
        }
    }
}

/// One tenant session: the progress cursor plus accounting.
#[derive(Debug)]
pub(crate) struct Session {
    /// Index into the tenant directory.
    pub tenant: usize,
    /// Progress-sequence cursor over the tenant's shared grammar index.
    pub predictor: Predictor,
    /// Events observed by this session.
    pub events: u64,
    /// Last time a request touched this session (drives TTL eviction).
    pub last_used: Instant,
    /// Write-ahead journal of the served observe stream.
    pub journal: SessionJournal,
}

#[derive(Debug)]
struct Slot {
    generation: u32,
    value: Option<Session>,
}

/// Slab of sessions owned by one shard. Slots are reused through a free
/// list; insertion is O(1) amortized with no per-session allocation
/// beyond the predictor itself.
#[derive(Debug, Default)]
pub(crate) struct SessionSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl SessionSlab {
    /// Live session count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Inserts a session, returning `(slot, generation)`.
    pub fn insert(&mut self, session: Session) -> (u32, u32) {
        self.insert_with_min_generation(session, 0)
    }

    /// Inserts a session whose slot generation is at least `min_gen`.
    /// Resurrection uses this with `old_generation + 1` so a resumed
    /// session can never be handed the id its previous incarnation had —
    /// even when it lands on the same shard and slot.
    pub fn insert_with_min_generation(&mut self, session: Session, min_gen: u32) -> (u32, u32) {
        debug_assert!(min_gen < (1 << 24));
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.value.is_none());
                s.generation = s.generation.max(min_gen);
                s.value = Some(session);
                (slot, s.generation)
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    generation: min_gen,
                    value: Some(session),
                });
                (slot, min_gen)
            }
        }
    }

    /// Handles of every session idle longer than `ttl` as of `now`.
    pub fn expired(&self, ttl: std::time::Duration, now: Instant) -> Vec<(u32, u32)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let session = s.value.as_ref()?;
                (now.duration_since(session.last_used) >= ttl).then_some((i as u32, s.generation))
            })
            .collect()
    }

    /// Visits every live session (drain uses this to flush journals).
    pub fn for_each_live(&mut self, mut f: impl FnMut(&mut Session)) {
        for s in &mut self.slots {
            if let Some(session) = s.value.as_mut() {
                f(session);
            }
        }
    }

    /// Resolves a handle, rejecting stale generations and empty slots.
    pub fn get_mut(&mut self, slot: u32, generation: u32) -> Option<&mut Session> {
        let s = self.slots.get_mut(slot as usize)?;
        if s.generation != generation {
            return None;
        }
        s.value.as_mut()
    }

    /// Frees a handle's slot. The generation bumps (mod 2^24) so the old
    /// id can never resolve again within a generation cycle.
    pub fn remove(&mut self, slot: u32, generation: u32) -> Option<Session> {
        let s = self.slots.get_mut(slot as usize)?;
        if s.generation != generation || s.value.is_none() {
            return None;
        }
        let session = s.value.take();
        s.generation = (s.generation + 1) & 0x00FF_FFFF;
        self.free.push(slot);
        self.live -= 1;
        session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_core::event::{EventId, EventRegistry};
    use pythia_core::predict::PredictorConfig;
    use pythia_core::record::{RecordConfig, Recorder};
    use std::sync::Arc;

    fn session() -> Session {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: false,
            validate: false,
        });
        for _ in 0..4 {
            rec.record_at(EventId(0), 0);
            rec.record_at(EventId(1), 0);
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let thread = Arc::clone(trace.thread(0).unwrap());
        Session {
            tenant: 0,
            predictor: Predictor::from_thread_trace(thread, PredictorConfig::default()),
            events: 0,
            last_used: Instant::now(),
            journal: SessionJournal::None,
        }
    }

    #[test]
    fn id_packing_roundtrips() {
        let id = SessionId::pack(255, (1 << 24) - 1, u32::MAX);
        assert_eq!(id.shard(), 255);
        assert_eq!(id.generation(), (1 << 24) - 1);
        assert_eq!(id.slot(), u32::MAX);
        let id = SessionId::pack(3, 7, 9);
        assert_eq!((id.shard(), id.generation(), id.slot()), (3, 7, 9));
    }

    #[test]
    fn stale_generations_are_rejected() {
        let mut slab = SessionSlab::default();
        let (slot, g0) = slab.insert(session());
        assert_eq!(slab.len(), 1);
        assert!(slab.get_mut(slot, g0).is_some());
        assert!(slab.remove(slot, g0).is_some());
        assert_eq!(slab.len(), 0);
        // The freed handle is dead: resolve and double-close both fail.
        assert!(slab.get_mut(slot, g0).is_none());
        assert!(slab.remove(slot, g0).is_none());
        // The slot is reused under a bumped generation.
        let (slot2, g1) = slab.insert(session());
        assert_eq!(slot2, slot);
        assert_eq!(g1, g0 + 1);
        assert!(slab.get_mut(slot, g0).is_none());
        assert!(slab.get_mut(slot, g1).is_some());
        // Out-of-range slots never resolve.
        assert!(slab.get_mut(999, 0).is_none());
    }

    #[test]
    fn min_generation_insert_skips_dead_ids() {
        let mut slab = SessionSlab::default();
        let (slot, g0) = slab.insert(session());
        assert!(slab.remove(slot, g0).is_some());
        // Resurrecting onto the same slot with min_gen past the bump
        // still lands strictly above the old generation.
        let (slot2, g) = slab.insert_with_min_generation(session(), g0 + 5);
        assert_eq!(slot2, slot);
        assert_eq!(g, g0 + 5);
        // A fresh slot starts at the requested floor.
        let (_, g) = slab.insert_with_min_generation(session(), 9);
        assert_eq!(g, 9);
    }

    #[test]
    fn expired_reports_only_idle_sessions() {
        let mut slab = SessionSlab::default();
        let (s0, g0) = slab.insert(session());
        let (s1, g1) = slab.insert(session());
        let now = Instant::now();
        let ttl = std::time::Duration::from_secs(10);
        assert!(slab.expired(ttl, now).is_empty());
        // Age one session past the TTL.
        slab.get_mut(s0, g0).unwrap().last_used = now - ttl * 2;
        assert_eq!(slab.expired(ttl, now), vec![(s0, g0)]);
        slab.get_mut(s1, g1).unwrap().last_used = now - ttl;
        assert_eq!(slab.expired(ttl, now).len(), 2);
        let mut seen = 0;
        slab.for_each_live(|_| seen += 1);
        assert_eq!(seen, 2);
    }
}
