//! Content-addressed compile cache.
//!
//! Keys are deterministic 64-bit content hashes of (source, processor
//! configuration, opt level) — the wasmtime/cranelift artifact-cache
//! shape: identical kernels compiled for identical targets share one
//! predecoded program ([`DecodedProgram`], which owns its
//! [`Program`]) no matter which stream, device or process-lifetime
//! launch asked first. Both frontends are covered: IR kernels (hashed
//! over a canonical renumbering, see [`Kernel::content_hash`]) and text
//! assembly (hashed over the source bytes).
//!
//! The cache is thread-safe and cheap to share (`Arc<CompileCache>`
//! across a device pool); hit/miss counters feed the runtime's
//! statistics. A hit compares the stored source material against the
//! request, so a 64-bit key collision degrades to a one-off compile
//! instead of returning the wrong program, and the map lock is never
//! held across a compile (per-key pending tracking serializes only
//! same-key callers).
//!
//! What an IR lookup needs from the kernel — the validation verdict,
//! the canonical bytes and the hash state after them — is memoized in
//! the kernel itself and shared by its clones (`Kernel::cache_identity`),
//! so a warm lookup hashes the ~30 configuration bytes, compares
//! material by pointer and allocates nothing.

use crate::error::CompileError;
use crate::ir::{hash_config, Fnv, Kernel};
use crate::lower::{compile, OptLevel};
use simt_core::{DecodedProgram, ProcessorConfig};
use simt_isa::{IsaError, Program};
use simt_profile::{CacheTier, Event, EventRing};
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// What a cache entry was compiled from. Kept alongside the program so
/// a 64-bit key collision is *detected* (the material is compared on
/// every hit) instead of silently handing back the wrong kernel. IR
/// material is the configuration-independent canonical form the hash
/// covers (dense-renumbered, reachable-only — the walk behind
/// [`Kernel::canonical_bytes`]), so content-identical kernels that
/// differ in name or arena garbage still hit; the configuration half
/// of the identity is the entry's `config`.
#[derive(Debug)]
enum SourceMaterial {
    /// Canonical IR bytes — the `Arc` the kernel's identity memo holds,
    /// so a launch of any clone matches by pointer — plus the opt level.
    Ir { canon: Arc<[u8]>, opt_full: bool },
    /// Assembly source text.
    Asm(String),
}

impl PartialEq for SourceMaterial {
    fn eq(&self, other: &Self) -> bool {
        use SourceMaterial::{Asm, Ir};
        match (self, other) {
            (
                Ir { canon, opt_full },
                Ir {
                    canon: other,
                    opt_full: other_full,
                },
            ) => opt_full == other_full && (Arc::ptr_eq(canon, other) || canon == other),
            (Asm(a), Asm(b)) => a == b,
            _ => false,
        }
    }
}

/// First key byte of IR and of assembly entries, so the two frontends
/// cannot share a key by accident.
pub(crate) const IR_NAMESPACE: u8 = 0x1A;
const ASM_NAMESPACE: u8 = 0x2B;

#[derive(Debug)]
struct Entry {
    /// Name the artifact was compiled under — what lookups of this
    /// entry are recorded as, shared so a hit allocates nothing.
    label: Arc<str>,
    material: SourceMaterial,
    config: ProcessorConfig,
    /// The program, predecoded for `config` when it was compiled, so
    /// graph replays and repeated stream launches skip re-decoding
    /// entirely.
    decoded: Arc<DecodedProgram>,
    /// Recency stamp for LRU eviction (larger = used more recently).
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    /// Keys currently being compiled by some thread; others wait on
    /// the condvar instead of compiling the same kernel in parallel —
    /// and instead of holding the map lock across a compile, which
    /// would serialize unrelated compilations pool-wide.
    pending: HashSet<u64>,
    /// Monotonic recency clock.
    tick: u64,
    /// Maximum resident artifacts (`None` = unbounded). A long-running
    /// pool serving many distinct programs must not grow without limit;
    /// past the bound the least-recently-used artifact is evicted.
    capacity: Option<usize>,
}

/// A shared, content-addressed map from compiled-artifact keys to
/// programs.
#[derive(Debug, Default)]
pub struct CompileCache {
    inner: Mutex<Inner>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    decode_hits: AtomicU64,
    decode_misses: AtomicU64,
    /// Optional event sink (see [`CompileCache::with_events`]).
    events: Option<Arc<EventRing>>,
}

/// Outcome of claiming a key under the lock.
enum Claim {
    /// Resident artifact.
    Hit(Arc<DecodedProgram>),
    /// This thread owns the compile for the key.
    Owned,
    /// The key is resident but the material differs (hash collision):
    /// compile without caching.
    Collision,
}

impl CompileCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` artifacts, evicting
    /// the least-recently-used past the bound.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "a compile cache needs room for one entry");
        let cache = Self::default();
        cache.inner.lock().unwrap().capacity = Some(capacity);
        cache
    }

    /// Attach an event ring: every compile- and decode-cache lookup
    /// then records one [`Event::CacheLookup`], and on a
    /// [detailed](EventRing::detailed) ring every fresh IR compile also
    /// records one [`Event::PassRun`] per pipeline pass invocation.
    pub fn with_events(mut self, events: Arc<EventRing>) -> Self {
        self.events = Some(events);
        self
    }

    /// Record a lookup outcome when a ring is attached (one branch on
    /// `None` otherwise). `kernel` is an entry's shared label, so this
    /// allocates nothing — it may run under the map lock.
    fn note(&self, kernel: &Arc<str>, tier: CacheTier, hit: bool) {
        if let Some(ring) = &self.events {
            ring.record(Event::CacheLookup {
                kernel: Arc::clone(kernel),
                tier,
                hit,
                decoded: true,
            });
        }
    }

    /// Claim `key` under the lock: hit, collision, or take ownership of
    /// the compile (waiting out any other thread already compiling it).
    /// Hits are recorded here, under the lock, so a hit's compile and
    /// decode outcomes stay adjacent; misses by the caller once it has a
    /// label.
    fn claim(&self, key: u64, material: &SourceMaterial, config: &ProcessorConfig) -> Claim {
        let mut inner = self.inner.lock().unwrap();
        loop {
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.map.get_mut(&key) {
                if e.material == *material && e.config == *config {
                    e.last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.decode_hits.fetch_add(1, Ordering::Relaxed);
                    self.note(&e.label, CacheTier::Compile, true);
                    self.note(&e.label, CacheTier::Decode, true);
                    return Claim::Hit(Arc::clone(&e.decoded));
                }
                return Claim::Collision;
            }
            if inner.pending.insert(key) {
                return Claim::Owned;
            }
            inner = self.ready.wait(inner).unwrap();
        }
    }

    /// Publish (or on failure abandon) an owned compile, evict past the
    /// LRU bound, and wake waiters.
    fn settle(&self, key: u64, entry: Option<Entry>) {
        let mut inner = self.inner.lock().unwrap();
        inner.pending.remove(&key);
        if let Some(mut e) = entry {
            inner.tick += 1;
            e.last_used = inner.tick;
            inner.map.insert(key, e);
            if let Some(cap) = inner.capacity {
                while inner.map.len() > cap {
                    let lru = inner
                        .map
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(&k, _)| k)
                        .expect("over-capacity map is non-empty");
                    inner.map.remove(&lru);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.ready.notify_all();
    }

    /// Compile an IR kernel (or return the cached artifact, flagged
    /// `true`), predecoded for `config` — the form
    /// `simt_core::Processor::load_decoded` consumes directly. Concurrent
    /// launches of the same kernel compile exactly once — later callers
    /// wait for the first, and unrelated keys compile in parallel (the
    /// map lock is not held across a compile). The decode is cached with
    /// the entry, so repeated launches and graph replays pay it once
    /// (observable via [`CompileCache::decode_hits`]).
    pub fn get_or_compile_decoded(
        &self,
        kernel: &Kernel,
        config: &ProcessorConfig,
        opt: OptLevel,
    ) -> Result<(Arc<DecodedProgram>, bool), CompileError> {
        // The kernel's identity memo carries everything derived from
        // the IR alone (validation verdict, canonical bytes, hash state
        // after them); a warm lookup hashes only the configuration on
        // top. A malformed kernel surfaces the same typed error here as
        // on the direct compile() path.
        let opt_full = matches!(opt, OptLevel::Full);
        let (canon, mut h) = kernel.cache_identity(opt_full)?;
        hash_config(&mut h, config);
        let material = SourceMaterial::Ir {
            canon: Arc::clone(canon),
            opt_full,
        };
        self.lookup(
            h.finish(),
            material,
            config,
            || kernel.name.as_str().into(),
            || {
                let compiled = compile(kernel, config, opt)?;
                if let Some(ring) = &self.events {
                    for ps in &compiled.report.passes {
                        ring.detail(|| Event::PassRun {
                            kernel: kernel.name.clone(),
                            pass: ps.pass.to_string(),
                            insts_before: ps.insts_before,
                            insts_after: ps.insts_after,
                            changed: ps.changed,
                        });
                    }
                }
                Ok(compiled.program)
            },
        )
    }

    /// Assemble a text kernel (or return the cached artifact, flagged
    /// `true`), keyed by the source bytes and configuration and
    /// predecoded for `config` (see
    /// [`CompileCache::get_or_compile_decoded`]).
    pub fn get_or_assemble_decoded(
        &self,
        asm: &str,
        config: &ProcessorConfig,
    ) -> Result<(Arc<DecodedProgram>, bool), IsaError> {
        let mut h = Fnv::default();
        h.write_u8(ASM_NAMESPACE);
        h.write(asm.as_bytes());
        hash_config(&mut h, config);
        let key = h.finish();
        self.lookup(
            key,
            SourceMaterial::Asm(asm.to_string()),
            config,
            // Assembly sources carry no kernel name; label by content
            // hash.
            || format!("asm#{key:016x}").into(),
            || simt_isa::assemble(asm),
        )
    }

    /// Resolve `key`: the resident artifact, or `build` it — cached
    /// when this thread owns the key, as a correct one-off (the
    /// resident entry left alone) on a keyspace collision. A miss is
    /// recorded here, outside the map lock: `label` allocates.
    fn lookup<E>(
        &self,
        key: u64,
        material: SourceMaterial,
        config: &ProcessorConfig,
        label: impl FnOnce() -> Arc<str>,
        build: impl FnOnce() -> Result<Program, E>,
    ) -> Result<(Arc<DecodedProgram>, bool), E> {
        let owned = match self.claim(key, &material, config) {
            Claim::Hit(d) => return Ok((d, true)),
            Claim::Owned => true,
            Claim::Collision => false,
        };
        let label = label();
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.note(&label, CacheTier::Compile, false);
        let program = match build() {
            Ok(p) => Arc::new(p),
            Err(e) => {
                if owned {
                    self.settle(key, None);
                }
                return Err(e);
            }
        };
        self.decode_misses.fetch_add(1, Ordering::Relaxed);
        self.note(&label, CacheTier::Decode, false);
        let decoded = Arc::new(DecodedProgram::decode(program, config));
        if owned {
            let entry = Entry {
                label,
                material,
                config: config.clone(),
                decoded: Arc::clone(&decoded),
                last_used: 0,
            };
            self.settle(key, Some(entry));
        }
        Ok((decoded, false))
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Artifacts evicted by the LRU bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lookups served from a cached decode (no re-decode).
    pub fn decode_hits(&self) -> u64 {
        self.decode_hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to decode (fresh compiles and collision
    /// one-offs).
    pub fn decode_misses(&self) -> u64 {
        self.decode_misses.load(Ordering::Relaxed)
    }

    /// The configured LRU bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.inner.lock().unwrap().capacity
    }

    /// Cached artifacts.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits over total lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let total = h + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            h / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrBuilder, Op, ValueId};

    fn kernel(mul: i32) -> Kernel {
        let mut b = IrBuilder::new("k");
        let tid = b.tid();
        let x = b.load(tid, 0);
        let c = b.iconst(mul);
        let y = b.mul(x, c);
        b.store(tid, 64, y);
        b.finish()
    }

    #[test]
    fn repeated_compiles_hit() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let k = kernel(3);
        let (p1, hit1) = cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        let (p2, hit2) = cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert!(!hit1);
        assert!(hit2);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!(cache.hit_rate() > 0.49);
    }

    #[test]
    fn distinct_kernels_configs_and_levels_miss() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let k = kernel(3);
        cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        cache
            .get_or_compile_decoded(&kernel(4), &cfg, OptLevel::Full)
            .unwrap();
        cache
            .get_or_compile_decoded(&k, &cfg.clone().with_threads(32), OptLevel::Full)
            .unwrap();
        cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::None)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 4));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn assembly_is_cached_by_source_and_config() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let src = "  stid r1\n  sts [r1+0], r1\n  exit";
        let (p1, hit1) = cache.get_or_assemble_decoded(src, &cfg).unwrap();
        let (p2, hit2) = cache.get_or_assemble_decoded(src, &cfg).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert!(!hit1);
        assert!(hit2);
        let _ = cache
            .get_or_assemble_decoded(src, &cfg.clone().with_threads(32))
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn arena_garbage_does_not_defeat_the_cache() {
        // Content-identical kernels that differ only in unreachable
        // arena entries share one hash AND one canonical material, so
        // the second lookup is a true hit (not a false collision).
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let k1 = kernel(3);
        let mut k2 = kernel(3);
        let garbage = k2.append_inst(crate::ir::Op::Const(99), vec![]);
        let _ = garbage; // never placed in a region
        let (_, hit1) = cache
            .get_or_compile_decoded(&k1, &cfg, OptLevel::Full)
            .unwrap();
        let (_, hit2) = cache
            .get_or_compile_decoded(&k2, &cfg, OptLevel::Full)
            .unwrap();
        assert!(!hit1);
        assert!(hit2, "garbage-only difference must still hit");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn malformed_kernels_error_instead_of_panicking() {
        // A kernel whose store references a value from another
        // builder's arena: the cache path must return the same typed
        // Malformed error as compile(), not panic inside the hasher
        // (a panic here would kill a runtime device worker and hang
        // synchronize()).
        let mut other = IrBuilder::new("other");
        for _ in 0..8 {
            let _ = other.iconst(1);
        }
        let foreign = other.tid(); // ValueId(8), out of range below
        let mut b = IrBuilder::new("bad");
        let tid = b.tid();
        b.store(tid, 0, foreign);
        let bad = b.finish();
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        match cache.get_or_compile_decoded(&bad, &cfg, OptLevel::Full) {
            Err(CompileError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn failed_compiles_are_not_cached() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small().with_regs_per_thread(2);
        let k = kernel(3);
        assert!(cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .is_err());
        assert!(cache.is_empty());
        assert!(cache.get_or_assemble_decoded("  frob r1", &cfg).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_bound_evicts_the_coldest_artifact() {
        let cache = CompileCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        let cfg = ProcessorConfig::small();
        cache
            .get_or_compile_decoded(&kernel(1), &cfg, OptLevel::Full)
            .unwrap();
        cache
            .get_or_compile_decoded(&kernel(2), &cfg, OptLevel::Full)
            .unwrap();
        assert_eq!((cache.len(), cache.evictions()), (2, 0));
        // Touch kernel(1) so kernel(2) is the LRU entry.
        let (_, hit) = cache
            .get_or_compile_decoded(&kernel(1), &cfg, OptLevel::Full)
            .unwrap();
        assert!(hit);
        // A third artifact pushes out kernel(2), not kernel(1).
        cache
            .get_or_compile_decoded(&kernel(3), &cfg, OptLevel::Full)
            .unwrap();
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        let (_, hit1) = cache
            .get_or_compile_decoded(&kernel(1), &cfg, OptLevel::Full)
            .unwrap();
        assert!(hit1, "recently-used artifact survived the eviction");
        // kernel(2) was evicted: compiling it again is a miss (and in
        // turn evicts the now-coldest kernel(3)).
        let (_, hit2) = cache
            .get_or_compile_decoded(&kernel(2), &cfg, OptLevel::Full)
            .unwrap();
        assert!(!hit2, "evicted artifact must recompile");
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = CompileCache::new();
        assert_eq!(cache.capacity(), None);
        let cfg = ProcessorConfig::small();
        for m in 1..=16 {
            cache
                .get_or_compile_decoded(&kernel(m), &cfg, OptLevel::Full)
                .unwrap();
        }
        assert_eq!((cache.len(), cache.evictions()), (16, 0));
    }

    #[test]
    fn decoded_lookups_cache_the_decode_with_the_artifact() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let k = kernel(3);
        // Fresh compile: the decode rides the new entry (a miss).
        let (d1, hit1) = cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        assert!(!hit1);
        assert_eq!((cache.decode_hits(), cache.decode_misses()), (0, 1));
        // Repeat: compile hit AND decode hit — the same Arc comes back.
        let (d2, hit2) = cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        assert!(hit2);
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!((cache.decode_hits(), cache.decode_misses()), (1, 1));
        assert_eq!(d1.config(), &cfg);
        // Every later lookup of the entry shares the one program too.
        let (d3, hit3) = cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        assert!(hit3);
        assert!(Arc::ptr_eq(d1.program(), d3.program()));
        assert_eq!((cache.decode_hits(), cache.decode_misses()), (2, 1));
    }

    #[test]
    fn every_config_field_is_part_of_the_artifact_identity() {
        // Config identity is the derived `==`: changing any one field
        // (to a value that still validates and compiles) is a cache
        // miss, and a processor of the base configuration refuses the
        // foreign decode. The exhaustive destructuring makes a new
        // field a compile error here until it gets a row; the final
        // `len` check fails if `hash_config` forgets it (equal keys are
        // a collision: compiled one-off, never resident).
        let base = ProcessorConfig::small();
        let ProcessorConfig {
            threads,
            regs_per_thread,
            shared_words,
            predicates,
            call_stack_depth,
            loop_stack_depth,
            imem_capacity,
            dsp_mode: _,
        } = base.clone();
        let variants = [
            ("threads", base.clone().with_threads(threads * 2)),
            (
                "regs_per_thread",
                base.clone().with_regs_per_thread(regs_per_thread * 2),
            ),
            (
                "shared_words",
                base.clone().with_shared_words(shared_words * 2),
            ),
            ("predicates", base.clone().with_predicates(!predicates)),
            (
                "call_stack_depth",
                ProcessorConfig {
                    call_stack_depth: call_stack_depth + 1,
                    ..base.clone()
                },
            ),
            (
                "loop_stack_depth",
                ProcessorConfig {
                    loop_stack_depth: loop_stack_depth + 1,
                    ..base.clone()
                },
            ),
            (
                "imem_capacity",
                ProcessorConfig {
                    imem_capacity: imem_capacity * 2,
                    ..base.clone()
                },
            ),
            (
                "dsp_mode",
                base.clone()
                    .with_dsp_mode(simt_core::DspMode::FloatingPoint),
            ),
        ];
        let cache = CompileCache::new();
        let k = kernel(3);
        let (_, hit) = cache
            .get_or_compile_decoded(&k, &base, OptLevel::Full)
            .unwrap();
        assert!(!hit);
        let mut cpu = simt_core::Processor::new(base.clone()).unwrap();
        for (field, cfg) in &variants {
            cfg.validate().unwrap();
            let (d, hit) = cache
                .get_or_compile_decoded(&k, cfg, OptLevel::Full)
                .unwrap();
            assert!(!hit, "{field} must split the cache");
            assert_eq!(
                cpu.load_decoded(d),
                Err(simt_core::LoadError::ConfigMismatch),
                "{field}"
            );
        }
        let (_, hit) = cache
            .get_or_compile_decoded(&k, &base, OptLevel::Full)
            .unwrap();
        assert!(hit, "the base artifact is still cached");
        assert_eq!(cache.len(), variants.len() + 1);
    }

    #[test]
    fn event_ring_sees_hits_misses_decodes_and_passes() {
        let lookups = |ring: &EventRing, tier: CacheTier, hit: bool| {
            ring.events()
                .iter()
                .filter(|e| {
                    matches!(e, Event::CacheLookup { tier: t, hit: h, .. }
                        if *t == tier && *h == hit)
                })
                .count()
        };
        let passes = |ring: &EventRing| {
            ring.events()
                .iter()
                .filter(|e| matches!(e, Event::PassRun { .. }))
                .count()
        };
        let cfg = ProcessorConfig::small();
        for detailed in [false, true] {
            let ring = Arc::new(EventRing::new(256, detailed));
            let cache = CompileCache::new().with_events(Arc::clone(&ring));
            let k = kernel(3);
            // Fresh decoded compile: miss + passes + decode miss.
            cache
                .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
                .unwrap();
            // Repeat: hit + decode hit.
            cache
                .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
                .unwrap();
            // Assembly miss, labelled by content hash.
            cache
                .get_or_assemble_decoded("  stid r1\n  exit", &cfg)
                .unwrap();
            assert_eq!(lookups(&ring, CacheTier::Compile, false), 2);
            assert_eq!(lookups(&ring, CacheTier::Compile, true), 1);
            assert_eq!(lookups(&ring, CacheTier::Decode, false), 2);
            assert_eq!(lookups(&ring, CacheTier::Decode, true), 1);
            // Pass runs cost allocations: detailed rings only.
            assert_eq!(passes(&ring) > 0, detailed);
            // IR lookups carry the kernel name; asm ones a hash label;
            // every lookup asks for the decode.
            let labels: Vec<(String, bool)> = ring
                .events()
                .iter()
                .filter_map(|e| match e {
                    Event::CacheLookup {
                        kernel,
                        tier: CacheTier::Compile,
                        decoded,
                        ..
                    } => Some((kernel.to_string(), *decoded)),
                    _ => None,
                })
                .collect();
            assert_eq!(labels[0], ("k".to_string(), true));
            assert_eq!(labels[1], ("k".to_string(), true));
            assert!(labels[2].0.starts_with("asm#") && labels[2].1);
        }
    }

    /// A looped, carried kernel every optimizing pass has something to
    /// do on: foldable constants, a shift-reducible multiply, a repeated
    /// subexpression, a store forwarded to a load, a mul feeding an add,
    /// loop-invariant work, a dead value and an elidable store.
    fn pass_fodder() -> Kernel {
        let mut b = IrBuilder::new("fodder");
        let tid = b.tid();
        let two = b.iconst(2);
        let three = b.iconst(3);
        let six = b.mul(two, three);
        let eight = b.iconst(8);
        let zero = b.iconst(0);
        let p = b.begin_loop_carried(4, &[zero]);
        let inv = b.add(tid, six);
        let again = b.add(tid, six);
        let x = b.load(tid, 0);
        let x8 = b.mul(x, eight);
        let prod = b.mul(x8, inv);
        let acc = b.add(prod, p[0]);
        let sum = b.add(acc, again);
        let _dead = b.sub(x, tid);
        let r = b.end_loop_carried(&[sum]);
        b.store(tid, 64, r[0]);
        let back = b.load(tid, 64);
        b.store(tid, 128, back);
        b.finish()
    }

    #[test]
    fn mutating_a_clone_through_any_pass_leaves_the_shared_memo_behind() {
        use crate::passes;
        type Pass = (&'static str, fn(&mut Kernel));
        let passes: [Pass; 10] = [
            ("optimize", |k| {
                passes::optimize(k);
            }),
            ("const_fold", |k| {
                passes::const_fold(k);
            }),
            ("strength_reduce", |k| {
                passes::strength_reduce(k);
            }),
            ("cse", |k| {
                passes::cse(k);
            }),
            ("forward_stores", |k| {
                passes::forward_stores(k);
            }),
            ("mad_fuse", |k| {
                passes::mad_fuse(k);
            }),
            ("elide_stores", |k| {
                passes::elide_stores(k, &[(128, 192)], 16);
            }),
            ("dce", |k| {
                passes::dce(k);
            }),
            ("licm", |k| {
                passes::licm(k);
            }),
            ("schedule_mem", |k| {
                passes::schedule_mem(k);
            }),
        ];
        let cfg = ProcessorConfig::small();
        // O0 artifacts, so what a pass did to the IR shows in the program.
        let opt = OptLevel::None;
        for (name, pass) in passes {
            let cache = CompileCache::new();
            let original = pass_fodder();
            let mut clone = original.clone();
            // Fills the cell the two share.
            let (before, _) = cache.get_or_compile_decoded(&clone, &cfg, opt).unwrap();
            pass(&mut clone);
            assert!(
                clone.canonical_bytes(&cfg) != original.canonical_bytes(&cfg),
                "{name} found nothing to rewrite in the fixture"
            );
            let (after, hit) = cache.get_or_compile_decoded(&clone, &cfg, opt).unwrap();
            assert!(!hit, "{name}: the rewritten clone hit its old entry");
            assert_eq!(
                **after.program(),
                compile(&clone, &cfg, opt).unwrap().program,
                "{name}"
            );
            let (again, hit) = cache.get_or_compile_decoded(&original, &cfg, opt).unwrap();
            assert!(hit, "{name}: the untouched original lost its entry");
            assert!(Arc::ptr_eq(&again, &before), "{name}");
        }
    }

    #[test]
    fn raw_mutators_and_stitching_start_from_a_fresh_memo() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let k = kernel(3);
        cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        let tid = k.body()[0];
        type Edit = fn(&mut Kernel, ValueId);
        let edits: [Edit; 3] = [
            |k, tid| {
                k.raw_push(crate::ir::Inst {
                    op: Op::Store(200),
                    args: vec![tid, tid],
                    scale: None,
                    guard: None,
                    body: None,
                    carried: None,
                });
            },
            |k, _| {
                let last = *k.body().last().unwrap();
                k.raw_inst_mut(last).op = Op::Store(65);
            },
            |k, _| {
                k.raw_body_mut().pop();
            },
        ];
        for edit in edits {
            let mut m = k.clone();
            edit(&mut m, tid);
            let (p, hit) = cache
                .get_or_compile_decoded(&m, &cfg, OptLevel::Full)
                .unwrap();
            assert!(!hit);
            assert_eq!(
                **p.program(),
                compile(&m, &cfg, OptLevel::Full).unwrap().program
            );
        }
        // A stitched kernel is built from its parts' arenas, not their
        // memos.
        let fused = crate::stitch::concat_kernels("kk", &[&k, &k]);
        let (p, hit) = cache
            .get_or_compile_decoded(&fused, &cfg, OptLevel::Full)
            .unwrap();
        assert!(!hit);
        assert_eq!(
            **p.program(),
            compile(&fused, &cfg, OptLevel::Full).unwrap().program
        );
        let (_, hit) = cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        assert!(hit, "the parts keep their own entry");
    }

    #[test]
    fn clones_of_a_never_looked_up_kernel_share_one_memo() {
        use crate::ir::IDENTITY_FILLS;
        let fills = || IDENTITY_FILLS.with(|n| n.get());
        let cache = CompileCache::new();
        let small = ProcessorConfig::small();
        let wide = small.clone().with_threads(32);
        let spec = kernel(3); // never looked up itself
        let base = fills();
        let (first, second) = (spec.clone(), spec.clone());
        cache
            .get_or_compile_decoded(&first, &small, OptLevel::Full)
            .unwrap();
        assert_eq!(fills() - base, 1);
        let (_, hit) = cache
            .get_or_compile_decoded(&second, &small, OptLevel::Full)
            .unwrap();
        assert!(hit);
        // The memo is IR-only: another configuration, another opt level
        // and the spec itself all reuse it.
        cache
            .get_or_compile_decoded(&second, &wide, OptLevel::Full)
            .unwrap();
        cache
            .get_or_compile_decoded(&second, &small, OptLevel::None)
            .unwrap();
        let (_, hit) = cache
            .get_or_compile_decoded(&spec, &wide, OptLevel::Full)
            .unwrap();
        assert!(hit);
        assert_eq!(fills() - base, 1, "one validate + canonicalize in all");
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
        // An equal kernel built separately has its own memo, and still
        // hits by content.
        let (_, hit) = cache
            .get_or_compile_decoded(&kernel(3), &small, OptLevel::Full)
            .unwrap();
        assert!(hit);
        assert_eq!(fills() - base, 2);
    }

    #[test]
    fn a_forged_key_collision_is_served_a_one_off_compile() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let (resident, victim) = (kernel(3), kernel(4));
        let (resident_program, _) = cache
            .get_or_compile_decoded(&resident, &cfg, OptLevel::Full)
            .unwrap();
        // Re-file the resident entry under the key the victim hashes to.
        let (_, mut h) = victim.cache_identity(true).unwrap();
        hash_config(&mut h, &cfg);
        {
            let mut inner = cache.inner.lock().unwrap();
            let (_, entry) = inner.map.drain().next().unwrap();
            inner.map.insert(h.finish(), entry);
        }
        for _ in 0..2 {
            let (d, hit) = cache
                .get_or_compile_decoded(&victim, &cfg, OptLevel::Full)
                .unwrap();
            assert!(!hit);
            assert_eq!(
                **d.program(),
                compile(&victim, &cfg, OptLevel::Full).unwrap().program
            );
            assert_ne!(d.program(), resident_program.program());
        }
        assert_eq!(cache.len(), 1, "the resident entry is left alone");
    }

    #[test]
    fn malformed_kernels_give_the_same_error_on_every_lookup() {
        let mut bad = kernel(3);
        let last = *bad.body().last().unwrap();
        bad.raw_inst_mut(last).args.pop();
        let want = bad.validate().unwrap_err();
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let clone = bad.clone();
        for k in [&bad, &bad, &clone] {
            assert_eq!(
                cache
                    .get_or_compile_decoded(k, &cfg, OptLevel::Full)
                    .unwrap_err(),
                want
            );
            assert_eq!(
                cache
                    .get_or_compile_decoded(k, &cfg, OptLevel::None)
                    .unwrap_err(),
                want
            );
        }
        assert!(cache.is_empty());
        // Repairing the kernel repairs the verdict.
        bad.raw_inst_mut(last).args.push(last);
        assert!(matches!(
            bad.validate(),
            Err(CompileError::Malformed { .. })
        ));
        let tid = bad.body()[0];
        bad.raw_inst_mut(last).args[1] = tid;
        assert!(cache
            .get_or_compile_decoded(&bad, &cfg, OptLevel::Full)
            .is_ok());
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = Arc::new(CompileCache::new());
        let cfg = ProcessorConfig::small();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    cache
                        .get_or_compile_decoded(&kernel(7), &cfg, OptLevel::Full)
                        .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Exactly one compile, though the map lock is never held across
        // it: the first thread to miss takes the key's `pending` claim,
        // the rest wait on the condvar until it publishes and then hit.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
    }
}
