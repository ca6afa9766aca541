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
//! statistics, and every lookup says what it did by value (a
//! [`Lookup`]) — the cache writes to no log of its own. A hit compares
//! the stored source material against the request, so a 64-bit key
//! collision degrades to a one-off compile instead of returning the
//! wrong program, and the map lock is never held across a compile
//! (per-key pending tracking serializes only same-key callers).
//!
//! What an IR lookup needs from the kernel — the validation verdict,
//! the canonical bytes and the hash state after them — is memoized in
//! the kernel itself and shared by its clones (`Kernel::cache_identity`),
//! so a warm lookup hashes the ~30 configuration bytes, compares
//! material by pointer and allocates nothing.

use crate::error::CompileError;
use crate::ir::{hash_config, Fnv, Kernel};
use crate::lower::{compile, OptLevel};
use crate::passes::PassStats;
use simt_core::{DecodedProgram, ProcessorConfig};
use simt_isa::{IsaError, Program};
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

/// What one lookup did, beside the program it returned. The caller owns
/// the report: the runtime writes it into its event ring next to the
/// launch it belongs to.
#[derive(Debug)]
pub struct Lookup {
    /// Name the artifact was compiled under — the kernel's name, or an
    /// `asm#<hash>` label for assembly sources. Shared with the cache
    /// entry, so a hit allocates nothing.
    pub label: Arc<str>,
    /// Whether the artifact was already resident: a compile hit and a
    /// decode hit (the decode rides the entry), or a miss of both.
    pub hit: bool,
    /// Every pass invocation of the compile this lookup ran, in
    /// execution order; empty on a hit and for assembly sources.
    pub passes: Vec<PassStats>,
}

#[derive(Debug)]
struct Entry {
    /// Name the artifact was compiled under — what lookups of this
    /// entry are reported as, shared so a hit allocates nothing.
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
}

/// Outcome of claiming a key under the lock.
enum Claim {
    /// Resident artifact, and the label it is reported under.
    Hit(Arc<DecodedProgram>, Arc<str>),
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

    /// Claim `key` under the lock: hit, collision, or take ownership of
    /// the compile (waiting out any other thread already compiling it).
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
                    return Claim::Hit(Arc::clone(&e.decoded), Arc::clone(&e.label));
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

    /// Compile an IR kernel (or return the cached artifact, reported a
    /// hit), predecoded for `config` — the form
    /// `simt_core::Processor::load_decoded` consumes directly; a fresh
    /// compile also reports the pass runs it made. Concurrent
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
    ) -> Result<(Arc<DecodedProgram>, Lookup), CompileError> {
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
            || compile(kernel, config, opt).map(|c| (c.program, c.report.passes)),
        )
    }

    /// Assemble a text kernel (or return the cached artifact, reported a
    /// hit), keyed by the source bytes and configuration and
    /// predecoded for `config` (see
    /// [`CompileCache::get_or_compile_decoded`]).
    pub fn get_or_assemble_decoded(
        &self,
        asm: &str,
        config: &ProcessorConfig,
    ) -> Result<(Arc<DecodedProgram>, Lookup), IsaError> {
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
            || simt_isa::assemble(asm).map(|program| (program, Vec::new())),
        )
    }

    /// Resolve `key`: the resident artifact, or `build` it — cached
    /// when this thread owns the key, as a correct one-off (the
    /// resident entry left alone) on a keyspace collision. `label`
    /// allocates, so it runs on a miss only, outside the map lock.
    fn lookup<E>(
        &self,
        key: u64,
        material: SourceMaterial,
        config: &ProcessorConfig,
        label: impl FnOnce() -> Arc<str>,
        build: impl FnOnce() -> Result<(Program, Vec<PassStats>), E>,
    ) -> Result<(Arc<DecodedProgram>, Lookup), E> {
        let report = |label, hit, passes| Lookup { label, hit, passes };
        let owned = match self.claim(key, &material, config) {
            Claim::Hit(decoded, label) => return Ok((decoded, report(label, true, Vec::new()))),
            Claim::Owned => true,
            Claim::Collision => false,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (program, passes) = match build() {
            Ok(built) => built,
            Err(e) => {
                if owned {
                    self.settle(key, None);
                }
                return Err(e);
            }
        };
        self.decode_misses.fetch_add(1, Ordering::Relaxed);
        let label = label();
        let decoded = Arc::new(DecodedProgram::decode(Arc::new(program), config));
        if owned {
            let entry = Entry {
                label: Arc::clone(&label),
                material,
                config: config.clone(),
                decoded: Arc::clone(&decoded),
                last_used: 0,
            };
            self.settle(key, Some(entry));
        }
        Ok((decoded, report(label, false, passes)))
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

    /// The program and whether it was resident.
    fn parts((decoded, lookup): (Arc<DecodedProgram>, Lookup)) -> (Arc<DecodedProgram>, bool) {
        (decoded, lookup.hit)
    }

    /// [`parts`] of an IR lookup that succeeds.
    fn get(
        cache: &CompileCache,
        kernel: &Kernel,
        config: &ProcessorConfig,
        opt: OptLevel,
    ) -> (Arc<DecodedProgram>, bool) {
        parts(cache.get_or_compile_decoded(kernel, config, opt).unwrap())
    }

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
        let (p1, hit1) = get(&cache, &k, &cfg, OptLevel::Full);
        let (p2, hit2) = get(&cache, &k, &cfg, OptLevel::Full);
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
        let (p1, hit1) = parts(cache.get_or_assemble_decoded(src, &cfg).unwrap());
        let (p2, hit2) = parts(cache.get_or_assemble_decoded(src, &cfg).unwrap());
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
        let (_, hit1) = get(&cache, &k1, &cfg, OptLevel::Full);
        let (_, hit2) = get(&cache, &k2, &cfg, OptLevel::Full);
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
        let (_, hit) = get(&cache, &kernel(1), &cfg, OptLevel::Full);
        assert!(hit);
        // A third artifact pushes out kernel(2), not kernel(1).
        cache
            .get_or_compile_decoded(&kernel(3), &cfg, OptLevel::Full)
            .unwrap();
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        let (_, hit1) = get(&cache, &kernel(1), &cfg, OptLevel::Full);
        assert!(hit1, "recently-used artifact survived the eviction");
        // kernel(2) was evicted: compiling it again is a miss (and in
        // turn evicts the now-coldest kernel(3)).
        let (_, hit2) = get(&cache, &kernel(2), &cfg, OptLevel::Full);
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
        let (d1, hit1) = get(&cache, &k, &cfg, OptLevel::Full);
        assert!(!hit1);
        assert_eq!((cache.decode_hits(), cache.decode_misses()), (0, 1));
        // Repeat: compile hit AND decode hit — the same Arc comes back.
        let (d2, hit2) = get(&cache, &k, &cfg, OptLevel::Full);
        assert!(hit2);
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!((cache.decode_hits(), cache.decode_misses()), (1, 1));
        assert_eq!(d1.config(), &cfg);
        // Every later lookup of the entry shares the one program too.
        let (d3, hit3) = get(&cache, &k, &cfg, OptLevel::Full);
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
        let (_, hit) = get(&cache, &k, &base, OptLevel::Full);
        assert!(!hit);
        let mut cpu = simt_core::Processor::new(base.clone()).unwrap();
        for (field, cfg) in &variants {
            cfg.validate().unwrap();
            let (d, hit) = get(&cache, &k, cfg, OptLevel::Full);
            assert!(!hit, "{field} must split the cache");
            assert_eq!(
                cpu.load_decoded(d),
                Err(simt_core::LoadError::ConfigMismatch),
                "{field}"
            );
        }
        let (_, hit) = get(&cache, &k, &base, OptLevel::Full);
        assert!(hit, "the base artifact is still cached");
        assert_eq!(cache.len(), variants.len() + 1);
    }

    #[test]
    fn a_lookup_reports_hits_misses_labels_and_passes_by_value() {
        let cfg = ProcessorConfig::small();
        let cache = CompileCache::new();
        let k = kernel(3);
        // Fresh compile: a miss carrying the pipeline's pass report,
        // labelled by the kernel's name.
        let (program, fresh) = cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        assert!(!fresh.hit);
        assert_eq!(&*fresh.label, "k");
        let want = compile(&k, &cfg, OptLevel::Full).unwrap().report.passes;
        assert!(!want.is_empty());
        let row = |p: &PassStats| (p.pass, p.insts_before, p.insts_after, p.changed);
        assert_eq!(
            fresh.passes.iter().map(row).collect::<Vec<_>>(),
            want.iter().map(row).collect::<Vec<_>>()
        );
        // Repeat: a hit of the same artifact — same shared label — that
        // ran no pass.
        let (same, again) = cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        assert!(again.hit && again.passes.is_empty());
        assert!(Arc::ptr_eq(&same, &program));
        assert!(Arc::ptr_eq(&again.label, &fresh.label));
        // An unoptimized compile runs no pipeline.
        let (_, o0) = cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::None)
            .unwrap();
        assert!(!o0.hit && o0.passes.is_empty());
        // Assembly: a miss labelled by content hash, no passes.
        let (_, asm) = cache
            .get_or_assemble_decoded("  stid r1\n  exit", &cfg)
            .unwrap();
        assert!(!asm.hit && asm.passes.is_empty());
        assert!(asm.label.starts_with("asm#"));
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
        assert_eq!((cache.decode_hits(), cache.decode_misses()), (1, 3));
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
            let (before, _) = get(&cache, &clone, &cfg, opt);
            pass(&mut clone);
            assert!(
                clone.canonical_bytes(&cfg) != original.canonical_bytes(&cfg),
                "{name} found nothing to rewrite in the fixture"
            );
            let (after, hit) = get(&cache, &clone, &cfg, opt);
            assert!(!hit, "{name}: the rewritten clone hit its old entry");
            assert_eq!(
                **after.program(),
                compile(&clone, &cfg, opt).unwrap().program,
                "{name}"
            );
            let (again, hit) = get(&cache, &original, &cfg, opt);
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
            let (p, hit) = get(&cache, &m, &cfg, OptLevel::Full);
            assert!(!hit);
            assert_eq!(
                **p.program(),
                compile(&m, &cfg, OptLevel::Full).unwrap().program
            );
        }
        // A stitched kernel is built from its parts' arenas, not their
        // memos.
        let fused = crate::stitch::concat_kernels("kk", &[&k, &k]);
        let (p, hit) = get(&cache, &fused, &cfg, OptLevel::Full);
        assert!(!hit);
        assert_eq!(
            **p.program(),
            compile(&fused, &cfg, OptLevel::Full).unwrap().program
        );
        let (_, hit) = get(&cache, &k, &cfg, OptLevel::Full);
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
        let (_, hit) = get(&cache, &second, &small, OptLevel::Full);
        assert!(hit);
        // The memo is IR-only: another configuration, another opt level
        // and the spec itself all reuse it.
        cache
            .get_or_compile_decoded(&second, &wide, OptLevel::Full)
            .unwrap();
        cache
            .get_or_compile_decoded(&second, &small, OptLevel::None)
            .unwrap();
        let (_, hit) = get(&cache, &spec, &wide, OptLevel::Full);
        assert!(hit);
        assert_eq!(fills() - base, 1, "one validate + canonicalize in all");
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
        // An equal kernel built separately has its own memo, and still
        // hits by content.
        let (_, hit) = get(&cache, &kernel(3), &small, OptLevel::Full);
        assert!(hit);
        assert_eq!(fills() - base, 2);
    }

    #[test]
    fn a_forged_key_collision_is_served_a_one_off_compile() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let (resident, victim) = (kernel(3), kernel(4));
        let (resident_program, _) = get(&cache, &resident, &cfg, OptLevel::Full);
        // Re-file the resident entry under the key the victim hashes to.
        let (_, mut h) = victim.cache_identity(true).unwrap();
        hash_config(&mut h, &cfg);
        {
            let mut inner = cache.inner.lock().unwrap();
            let (_, entry) = inner.map.drain().next().unwrap();
            inner.map.insert(h.finish(), entry);
        }
        for _ in 0..2 {
            let (d, hit) = get(&cache, &victim, &cfg, OptLevel::Full);
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
