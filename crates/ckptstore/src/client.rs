//! The client handle and the per-shard worker component.
//!
//! [`StoreClient`] is the one way into a [`StoreService`]: a cheap
//! `Clone` handle (an `Rc<RefCell<..>>`, same idiom as the coordinator
//! WAL's `WalStore` handle) that every subsystem — testbed fileserver,
//! swap, time travel, benches — holds by value. All methods take
//! `&self`; the interior service is single-threaded under the sim
//! engine, so borrows are short and never reentrant.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use sim::{Buggify, Component, ComponentId, Ctx, Engine, Payload, SimDuration, SimTime, Telemetry};

use crate::error::StoreError;
use crate::service::{
    CaptureCache, ImageId, ImageStats, PutReport, RepairStats, RepairTask, StoreBuilder,
    StoreService, TimedPut,
};

/// Cheap-`Clone` handle to a sharded store service. Build one with
/// [`StoreClient::builder`].
#[derive(Clone)]
pub struct StoreClient {
    svc: Rc<RefCell<StoreService>>,
}

impl Default for StoreClient {
    /// A single-shard, replication-1, in-memory store with the default
    /// chunk size.
    fn default() -> Self {
        StoreClient::builder().build()
    }
}

impl fmt::Debug for StoreClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let svc = self.svc.borrow();
        f.debug_struct("StoreClient")
            .field("shards", &svc.shard_count())
            .field("replication", &svc.replication())
            .field("images", &svc.image_count())
            .field("chunks", &svc.chunk_count())
            .finish()
    }
}

impl StoreClient {
    /// Configures a sharded, replicated store; `build()` returns the
    /// handle to drive it with.
    pub fn builder() -> StoreBuilder {
        StoreBuilder::default()
    }

    pub(crate) fn from_service(svc: StoreService) -> Self {
        StoreClient { svc: Rc::new(RefCell::new(svc)) }
    }

    // -- configuration & wiring ---------------------------------------

    pub fn chunk_size(&self) -> usize {
        self.svc.borrow().chunk_size()
    }

    pub fn shard_count(&self) -> usize {
        self.svc.borrow().shard_count()
    }

    pub fn replication(&self) -> usize {
        self.svc.borrow().replication()
    }

    /// Majority quorum a put must reach before it reports durable.
    pub fn quorum(&self) -> usize {
        self.svc.borrow().quorum()
    }

    /// Sets the copies kept per chunk inserted from now on (existing
    /// chunks keep their count until a redundancy rebuild).
    pub fn set_replication(&self, copies: usize) {
        self.svc.borrow_mut().set_replication(copies);
    }

    /// Arms randomized fault exploration: the `store.*` buggify points
    /// (put corruption, slow gets, shard-fail replica writes, skipped
    /// scrub passes) fire from the registry's per-point streams.
    pub fn attach_buggify(&self, bg: &Buggify) {
        self.svc.borrow_mut().attach_buggify(bg);
    }

    /// Attaches telemetry after the fact (prefer the builder's
    /// `telemetry` knob, which also names the shard tracks at build).
    pub fn attach_telemetry(&self, telemetry: &Telemetry, host: u32) {
        self.svc.borrow_mut().attach_telemetry(telemetry, host);
    }

    /// Drains the accumulated extra latency owed by buggified slow loads
    /// (ns since the last drain). The component that schedules load
    /// completions adds this to its completion time.
    pub fn take_get_penalty_ns(&self) -> u64 {
        self.svc.borrow_mut().take_get_penalty_ns()
    }

    // -- the batched, pipelined write path ----------------------------

    /// Stores an image: chunks it, fans new chunks out to their shards
    /// (with replication and quorum-ack), bumps refcounts on shared
    /// ones. Untimed — use [`StoreClient::put_image_at`] inside a
    /// simulation to also get the commit instant.
    pub fn put_image(&self, bytes: &[u8]) -> PutReport {
        self.svc.borrow_mut().put_image_inner(bytes, None, None).report
    }

    /// [`StoreClient::put_image`] through a [`CaptureCache`]: a chunk
    /// whose bytes are unchanged since the cache's image is re-admitted
    /// under its cached content address without re-hashing. Observably
    /// identical to `put_image` — same manifest, same [`PutReport`],
    /// same dedup accounting — only the wall-clock hashing work differs.
    pub fn put_image_cached(&self, bytes: &[u8], cache: &mut CaptureCache) -> PutReport {
        self.svc.borrow_mut().put_image_inner(bytes, Some(cache), None).report
    }

    /// The timed put: batches land on each shard's pipeline clock, and
    /// the returned [`TimedPut`] carries the instant the slowest chunk
    /// reached quorum durability. Pass the capture cache when one
    /// exists; `now` is the submit instant.
    pub fn put_image_at(
        &self,
        bytes: &[u8],
        cache: Option<&mut CaptureCache>,
        now: SimTime,
    ) -> TimedPut {
        self.svc.borrow_mut().put_image_inner(bytes, cache, Some(now))
    }

    // -- reads & lifecycle --------------------------------------------

    /// Reassembles an image, re-hashing every chunk on the way out. A
    /// corrupt primary is served from the first intact replica (counted
    /// in [`StoreClient::repaired_chunks`], with read-repair enqueued);
    /// the typed error surfaces only when every copy is damaged.
    pub fn load_image(&self, id: ImageId) -> Result<Vec<u8>, StoreError> {
        self.svc.borrow_mut().load_image(id)
    }

    /// Drops an image, decrementing refcounts and releasing chunks whose
    /// last reference this was. Returns the physical bytes freed.
    pub fn remove_image(&self, id: ImageId) -> Result<u64, StoreError> {
        self.svc.borrow_mut().remove_image(id)
    }

    pub fn contains(&self, id: ImageId) -> bool {
        self.svc.borrow().contains(id)
    }

    /// Byte length of a stored image.
    pub fn image_len(&self, id: ImageId) -> Result<u64, StoreError> {
        self.svc.borrow().image_len(id)
    }

    pub fn image_count(&self) -> usize {
        self.svc.borrow().image_count()
    }

    pub fn chunk_count(&self) -> usize {
        self.svc.borrow().chunk_count()
    }

    pub fn physical_bytes(&self) -> u64 {
        self.svc.borrow().physical_bytes()
    }

    pub fn replica_bytes(&self) -> u64 {
        self.svc.borrow().replica_bytes()
    }

    pub fn repaired_chunks(&self) -> u64 {
        self.svc.borrow().repaired_chunks()
    }

    pub fn stats(&self) -> ImageStats {
        self.svc.borrow().stats()
    }

    // -- gossip repair ------------------------------------------------

    /// Enqueues a repair task for every damaged or missing copy found by
    /// a hash-order scan (skippable at the `store.scrub_skip` point).
    pub fn schedule_scrub(&self) -> u64 {
        self.svc.borrow_mut().schedule_scrub()
    }

    /// Raises under-replicated chunks' target copy counts, enqueueing
    /// the missing copies for background repair.
    pub fn schedule_redundancy_rebuild(&self) -> u64 {
        self.svc.borrow_mut().schedule_redundancy_rebuild()
    }

    /// Resolves up to `max` queued tasks owned by `shard` (or any shard
    /// when `None`). Returns `(healed, added)` copy counts.
    pub fn pump_repairs(&self, shard: Option<usize>, max: usize, at: Option<SimTime>) -> (u64, u64) {
        self.svc.borrow_mut().pump_repairs(shard, max, at)
    }

    /// Synchronously drains the whole repair queue.
    pub fn drain_repairs(&self) -> (u64, u64) {
        self.svc.borrow_mut().drain_repairs()
    }

    /// Schedules and synchronously drains a scrub pass; returns distinct
    /// chunks healed.
    pub fn scrub_now(&self) -> u64 {
        self.svc.borrow_mut().scrub_now()
    }

    /// Raises under-replicated chunks through the repair queue and
    /// drains it; returns distinct chunks that gained a copy.
    pub fn rebuild_redundancy(&self) -> u64 {
        self.svc.borrow_mut().rebuild_redundancy()
    }

    /// Tasks currently waiting on the repair queue (oldest first) — the
    /// deterministic repair schedule.
    pub fn pending_repairs(&self) -> Vec<RepairTask> {
        self.svc.borrow().pending_repairs()
    }

    pub fn repair_backlog(&self) -> usize {
        self.svc.borrow().repair_backlog()
    }

    pub fn repair_stats(&self) -> RepairStats {
        self.svc.borrow().repair_stats()
    }

    /// Spawns one [`ShardWorker`] per shard on the engine, each pumping
    /// its shard's repair backlog every `period`. The workers re-post
    /// themselves forever, so drive such an engine with `run_until` /
    /// `run_for` rather than `run_to_completion`.
    pub fn spawn_repair_workers(
        &self,
        engine: &mut Engine,
        period: SimDuration,
    ) -> Vec<ComponentId> {
        (0..self.shard_count())
            .map(|shard| {
                let id = engine.add_component(Box::new(ShardWorker {
                    client: self.clone(),
                    shard,
                    period,
                }));
                engine.post(id, period, PumpTick);
                id
            })
            .collect()
    }

    // -- corruption hooks (fault-injection surface) -------------------

    /// Flips one byte inside *every* stored copy of a chunk so the next
    /// load must report [`StoreError::CorruptChunk`].
    #[doc(hidden)]
    pub fn corrupt_chunk(
        &self,
        image: ImageId,
        chunk_index: usize,
        byte: usize,
    ) -> Result<(), StoreError> {
        self.svc.borrow_mut().corrupt_chunk(image, chunk_index, byte)
    }

    /// Flips one byte in the primary copy only, leaving replicas intact.
    #[doc(hidden)]
    pub fn corrupt_primary(
        &self,
        image: ImageId,
        chunk_index: usize,
        byte: usize,
    ) -> Result<(), StoreError> {
        self.svc.borrow_mut().corrupt_primary(image, chunk_index, byte)
    }
}

struct PumpTick;

/// One shard's independently-owned repair worker: a sim component that
/// drains its shard's slice of the gossip repair queue in
/// policy-bounded batches, stamping per-shard trace events as it goes.
pub struct ShardWorker {
    client: StoreClient,
    shard: usize,
    period: SimDuration,
}

impl ShardWorker {
    pub fn shard(&self) -> usize {
        self.shard
    }
}

impl Component for ShardWorker {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        if payload.downcast_ref::<PumpTick>().is_some() {
            let batch = self.client.svc.borrow().policy_repair_batch();
            let now = ctx.now();
            self.client.pump_repairs(Some(self.shard), batch, Some(now));
            ctx.post_self(self.period, PumpTick);
        }
    }

    sim::component_boilerplate!();
}

// Single-shard, replication-1 observable semantics of the client: dedup,
// refcounted release, replica repair, scrub, redundancy rebuild, capture
// cache and write-path corruption.
#[cfg(test)]
mod tests {
    use super::*;
    use sim::buggify::points;
    use sim::Preset;

    fn store64() -> StoreClient {
        StoreClient::builder().chunk_size(64).build()
    }

    fn image(pattern: impl Fn(usize) -> u8, len: usize) -> Vec<u8> {
        (0..len).map(pattern).collect()
    }

    /// A store at `replication` whose every chunk write damages the
    /// primary copy (replicas land clean), through the forced
    /// `store.put_corrupt` point of `bg`.
    fn corrupting(replication: usize, bg: Buggify) -> StoreClient {
        let s = store64();
        s.set_replication(replication);
        bg.force(points::STORE_PUT_CORRUPT, 1.0);
        s.attach_buggify(&bg);
        s
    }

    #[test]
    fn round_trip_identity() {
        let s = store64();
        let img = image(|i| (i % 251) as u8, 1000);
        let r = s.put_image(&img);
        assert_eq!(r.logical_bytes, 1000);
        assert_eq!(r.chunks_total, 16, "ceil(1000/64)");
        assert_eq!(s.load_image(r.image).unwrap(), img);
    }

    #[test]
    fn identical_images_share_everything() {
        let s = store64();
        let img = image(|i| (i / 64) as u8, 4096);
        let r1 = s.put_image(&img);
        let r2 = s.put_image(&img);
        assert_eq!(r1.chunks_new, r1.chunks_total);
        assert_eq!(r2.chunks_new, 0, "second copy stores nothing");
        assert_eq!(r2.new_physical_bytes, 0);
        let st = s.stats();
        assert_eq!(st.logical_bytes, 8192);
        assert_eq!(st.physical_bytes, 4096);
        assert!((st.dedup_ratio - 2.0).abs() < 1e-12);
        assert_eq!(st.chunks_shared, 64);
    }

    #[test]
    fn child_stores_only_the_delta() {
        let s = store64();
        let parent = image(|i| (i / 64) as u8, 64 * 100);
        let mut child = parent.clone();
        // Change chunks 10 and 20 only.
        child[64 * 10] ^= 0xFF;
        child[64 * 20] ^= 0xFF;
        let rp = s.put_image(&parent);
        let rc = s.put_image(&child);
        assert_eq!(rp.chunks_new, 100);
        assert_eq!(rc.chunks_new, 2);
        assert_eq!(rc.new_physical_bytes, 128);
        assert_eq!(s.load_image(rc.image).unwrap(), child);
    }

    #[test]
    fn remove_releases_exactly_the_unshared_chunks() {
        let s = store64();
        let parent = image(|i| (i / 64) as u8, 64 * 10);
        let mut child = parent.clone();
        child[0] ^= 0xFF;
        let rp = s.put_image(&parent);
        let rc = s.put_image(&child);
        assert_eq!(s.chunk_count(), 11);

        // Dropping the child frees only its private chunk.
        let freed = s.remove_image(rc.image).unwrap();
        assert_eq!(freed, 64);
        assert_eq!(s.chunk_count(), 10);
        assert_eq!(s.load_image(rp.image).unwrap(), parent);

        // Dropping the parent empties the store.
        let freed = s.remove_image(rp.image).unwrap();
        assert_eq!(freed, 64 * 10);
        assert_eq!(s.chunk_count(), 0);
        assert_eq!(s.physical_bytes(), 0);
        assert!(matches!(
            s.load_image(rp.image),
            Err(StoreError::UnknownImage(_))
        ));
    }

    #[test]
    fn double_remove_is_a_typed_error() {
        let s = StoreClient::default();
        let r = s.put_image(b"hello");
        s.remove_image(r.image).unwrap();
        assert_eq!(
            s.remove_image(r.image),
            Err(StoreError::UnknownImage(r.image))
        );
    }

    #[test]
    fn corruption_surfaces_as_typed_error_not_panic() {
        let s = store64();
        let img = image(|i| i as u8, 500);
        let r = s.put_image(&img);
        assert!(s.corrupt_chunk(r.image, 3, 17).is_ok());
        match s.load_image(r.image) {
            Err(StoreError::CorruptChunk { chunk_index, .. }) => assert_eq!(chunk_index, 3),
            other => panic!("expected CorruptChunk, got {other:?}"),
        }
    }

    #[test]
    fn empty_image_round_trips() {
        let s = StoreClient::default();
        let r = s.put_image(b"");
        assert_eq!(r.chunks_total, 0);
        assert_eq!(s.load_image(r.image).unwrap(), Vec::<u8>::new());
        assert_eq!(s.remove_image(r.image).unwrap(), 0);
    }

    #[test]
    fn redundancy_two_repairs_a_corrupt_primary_transparently() {
        let s = store64();
        s.set_replication(2);
        let img = image(|i| (i % 313 % 256) as u8, 640);
        let r = s.put_image(&img);
        assert_eq!(s.replica_bytes(), 640, "one replica per chunk");
        assert_eq!(
            s.physical_bytes(),
            640,
            "replicas not in primary accounting"
        );
        assert!(s.corrupt_primary(r.image, 4, 9).is_ok());
        assert_eq!(
            s.load_image(r.image).unwrap(),
            img,
            "served from the replica"
        );
        assert_eq!(s.repaired_chunks(), 1);
        // Scrub rewrites the damaged primary; later loads are clean again.
        assert_eq!(s.scrub_now(), 1);
        assert_eq!(s.load_image(r.image).unwrap(), img);
        assert_eq!(s.repaired_chunks(), 1, "no further replica reads needed");
    }

    #[test]
    fn redundancy_one_has_no_fallback() {
        let s = store64();
        let img = image(|i| i as u8, 256);
        let r = s.put_image(&img);
        assert!(s.corrupt_primary(r.image, 1, 0).is_ok());
        assert!(matches!(
            s.load_image(r.image),
            Err(StoreError::CorruptChunk { chunk_index: 1, .. })
        ));
        assert_eq!(s.scrub_now(), 0, "nothing intact to repair from");
    }

    #[test]
    fn write_faults_damage_primaries_deterministically() {
        let img = image(|i| (i % 199) as u8, 64 * 8);
        let s = corrupting(2, Buggify::disabled());
        let r = s.put_image(&img);
        assert_eq!(
            s.load_image(r.image).unwrap(),
            img,
            "replicas repair every chunk"
        );
        assert_eq!(s.repaired_chunks(), 8);

        // At replication 1 the same faults are fatal. Which byte flips is
        // drawn from the point's seeded stream, and the surfaced hash of
        // the damaged chunk shows it.
        let damage = |seed| {
            let s = corrupting(1, Buggify::armed(seed, Preset::Calm));
            let r = s.put_image(&img);
            s.load_image(r.image).unwrap_err()
        };
        assert!(matches!(
            damage(7),
            StoreError::CorruptChunk { chunk_index: 0, .. }
        ));
        assert_eq!(damage(7), damage(7), "same seed, same byte flipped");
        assert_ne!(
            damage(7),
            damage(8),
            "different seed, different byte flipped"
        );
    }

    #[test]
    fn rebuild_redundancy_raises_chunks_inserted_before_the_setting() {
        let s = store64();
        // Ten chunks stored at replication 1, two more after raising it.
        let old = image(|i| (i / 64) as u8, 64 * 10);
        let r_old = s.put_image(&old).image;
        s.set_replication(3);
        let new = image(|i| 100 + (i / 64) as u8, 64 * 2);
        let r_new = s.put_image(&new).image;
        assert_eq!(
            s.replica_bytes(),
            64 * 2 * 2,
            "only post-setting chunks carry replicas"
        );

        let raised = s.rebuild_redundancy();
        assert_eq!(raised, 10, "every pre-setting chunk gained replicas");
        assert_eq!(s.replica_bytes(), 64 * 12 * 2, "all chunks at 3 copies");
        assert_eq!(s.rebuild_redundancy(), 0, "idempotent once raised");

        // The retrofitted replicas are real: a corrupt primary in the old
        // image now repairs transparently instead of failing the load.
        assert!(s.corrupt_primary(r_old, 2, 5).is_ok());
        assert_eq!(s.load_image(r_old).unwrap(), old);
        assert_eq!(s.repaired_chunks(), 1);
        assert_eq!(s.load_image(r_new).unwrap(), new);
    }

    #[test]
    fn rebuild_redundancy_skips_chunks_with_no_intact_copy() {
        let s = store64();
        let img = image(|i| i as u8, 64 * 2);
        let r = s.put_image(&img).image;
        // Damage every copy of chunk 0 (replication 1: just the primary).
        assert!(s.corrupt_chunk(r, 0, 3).is_ok());
        s.set_replication(2);
        assert_eq!(
            s.rebuild_redundancy(),
            1,
            "only the intact chunk is raised; the hopeless one is skipped"
        );
        assert!(matches!(
            s.load_image(r),
            Err(StoreError::CorruptChunk { chunk_index: 0, .. })
        ));
    }

    #[test]
    fn telemetry_counts_dedup_repairs_and_rebuilds() {
        let t = Telemetry::new();
        let s = store64();
        s.attach_telemetry(&t, 0);
        let img = image(|i| (i / 64) as u8, 64 * 4);
        let r = s.put_image(&img).image;
        s.put_image(&img); // fully deduplicated second copy
        assert_eq!(t.counter_value("ckptstore.chunks_new"), Some(4));
        assert_eq!(t.counter_value("ckptstore.dedup_hits"), Some(4));
        assert_eq!(t.counter_value("ckptstore.logical_bytes"), Some(512));
        assert_eq!(t.counter_value("ckptstore.new_physical_bytes"), Some(256));

        s.set_replication(2);
        s.rebuild_redundancy();
        assert_eq!(t.counter_value("ckptstore.replicas_added"), Some(4));

        assert!(s.corrupt_primary(r, 1, 7).is_ok());
        s.load_image(r).unwrap();
        assert_eq!(t.counter_value("ckptstore.replica_repairs"), Some(1));
        assert_eq!(s.scrub_now(), 1);
        assert_eq!(t.counter_value("ckptstore.scrub_heals"), Some(1));
    }

    #[test]
    fn cached_put_is_observably_identical_and_counts_hits() {
        let plain = store64();
        let cached = store64();
        let mut cache = CaptureCache::new();

        let base = image(|i| (i / 64) as u8, 64 * 20);
        let mut next = base.clone();
        next[64 * 3] ^= 0xFF; // dirty chunk 3
        next[64 * 11] ^= 0xFF; // dirty chunk 11

        for img in [&base, &next] {
            let rp = plain.put_image(img);
            let rc = cached.put_image_cached(img, &mut cache);
            assert_eq!(rp.logical_bytes, rc.logical_bytes);
            assert_eq!(rp.new_physical_bytes, rc.new_physical_bytes);
            assert_eq!(rp.chunks_total, rc.chunks_total);
            assert_eq!(rp.chunks_new, rc.chunks_new);
            assert_eq!(cached.load_image(rc.image).unwrap(), *img);
        }
        // First put: cold cache, all 20 miss. Second: 18 clean chunks
        // re-admitted by cached hash, the 2 dirty ones hashed.
        assert_eq!(cache.misses(), 22);
        assert_eq!(cache.hits(), 18);
    }

    #[test]
    fn stale_or_foreign_cache_only_misses() {
        let s = store64();
        let mut cache = CaptureCache::new();
        let a = image(|i| i as u8, 64 * 4);
        s.put_image_cached(&a, &mut cache);

        // A completely different image through the same cache: every
        // chunk misses, content still round-trips.
        let b = image(|i| (100 + i % 251) as u8, 64 * 6);
        let r = s.put_image_cached(&b, &mut cache);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 10);
        assert_eq!(s.load_image(r.image).unwrap(), b);

        // The now-refreshed cache also works against a *different* store
        // (cache entries carry their own verified bytes).
        let other = store64();
        let r2 = other.put_image_cached(&b, &mut cache);
        assert_eq!(r2.chunks_new, 6);
        assert_eq!(cache.hits(), 6);
        assert_eq!(other.load_image(r2.image).unwrap(), b);
    }

    #[test]
    fn cached_put_never_caches_fault_damaged_bytes() {
        let s = corrupting(2, Buggify::disabled()); // every insert damaged
        let mut cache = CaptureCache::new();
        let img = image(|i| (i % 199) as u8, 64 * 8);
        let r1 = s.put_image_cached(&img, &mut cache);
        assert_eq!(r1.chunks_new, 8);
        // Recapturing the same clean bytes must hit the cache (the cache
        // holds clean payloads, not the damaged primaries) and dedup.
        let r2 = s.put_image_cached(&img, &mut cache);
        assert_eq!(cache.hits(), 8);
        assert_eq!(r2.chunks_new, 0);
        assert_eq!(s.load_image(r2.image).unwrap(), img, "replicas repair");
        assert_eq!(s.repaired_chunks(), 8);
    }

    #[test]
    fn telemetry_counts_hash_cache_traffic() {
        let t = Telemetry::new();
        let s = store64();
        s.attach_telemetry(&t, 0);
        let mut cache = CaptureCache::new();
        let img = image(|i| (i / 64) as u8, 64 * 4);
        s.put_image_cached(&img, &mut cache);
        s.put_image_cached(&img, &mut cache);
        assert_eq!(t.counter_value("ckptstore.hash_cache_hits"), Some(4));
        assert_eq!(t.counter_value("ckptstore.hash_cache_misses"), Some(4));
        // Uncached puts do not touch the cache counters.
        s.put_image(&img);
        assert_eq!(t.counter_value("ckptstore.hash_cache_hits"), Some(4));
        assert_eq!(t.counter_value("ckptstore.hash_cache_misses"), Some(4));
    }

    #[test]
    fn stats_on_empty_store() {
        let st = StoreClient::default().stats();
        assert_eq!(st.logical_bytes, 0);
        assert_eq!(st.physical_bytes, 0);
        assert_eq!(st.dedup_ratio, 1.0);
        assert_eq!(st.chunks_shared, 0);
    }
}
