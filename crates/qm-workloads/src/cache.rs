//! The program cache: each program is compiled (or assembled) and
//! statically verified once, and every later run of it reuses both.
//!
//! In pseudo-static data flow a program's object code is fixed at
//! compile time, so compiling is a pure function of (text, compiler
//! [`Options`]) and verifying a pure function of (object, queue page
//! size). The cache is keyed by exactly those inputs: the program's
//! [`Lang`], its whole text, the options and the page size. A hit
//! compares the text itself, so two different programs never share an
//! entry, whatever their hashes.
//!
//! [`WorkloadRun::prepare`](crate::WorkloadRun::prepare) runs through
//! one process-wide cache; `qm-serve` keeps one per server, so its
//! `/v1/health` counters describe that server's traffic alone. Each
//! holds at most [`CACHE_CAP`] programs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use qm_isa::asm::{assemble, Object};
use qm_occam::sema::SymKind;
use qm_occam::{compile, Options};
use qm_verify::{deep_verify, verify_object, DeepReport, Report, VerifyOptions};

/// Most programs one cache holds. Filling a program past it evicts the
/// one filled longest ago.
pub const CACHE_CAP: usize = 256;

/// The language a program's text is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lang {
    /// OCCAM source, compiled.
    Occam,
    /// Queue-machine assembly, assembled.
    Assembly,
}

/// Everything compiling and verifying a program depends on.
#[derive(Debug, PartialEq, Eq, Hash)]
struct Key {
    lang: Lang,
    text: String,
    opts: Options,
    page_words: u32,
}

/// A cached program: everything a run needs downstream of the compiler
/// and the verifier.
#[derive(Debug)]
pub struct Entry {
    /// Assembled object code.
    pub object: Object,
    /// Resolved symbol table (empty for assembly programs).
    pub syms: HashMap<String, SymKind>,
    /// The shallow verifier's report on [`object`](Self::object), made
    /// once when the entry was filled.
    pub report: Report,
    page_words: u32,
    /// The deep tier, filled by the first caller that asks for it
    /// (see [`CompileCache::deep_report`]).
    deep: OnceLock<DeepReport>,
}

impl Entry {
    fn fill(key: &Key) -> Result<Entry, String> {
        let (object, syms) = match key.lang {
            Lang::Occam => {
                let c = compile(&key.text, &key.opts).map_err(|e| e.to_string())?;
                (c.object, c.syms)
            }
            Lang::Assembly => (assemble(&key.text).map_err(|e| e.to_string())?, HashMap::new()),
        };
        let report = verify_object(&object, &VerifyOptions { page_words: key.page_words });
        Ok(Entry { object, syms, report, page_words: key.page_words, deep: OnceLock::new() })
    }
}

/// Thread-safe program cache with hit/miss counters.
#[derive(Debug, Default)]
pub struct CompileCache {
    entries: Mutex<Entries>,
    hits: AtomicU64,
    misses: AtomicU64,
    deep_hits: AtomicU64,
    deep_misses: AtomicU64,
}

/// The cached programs, each stamped with its fill order.
#[derive(Debug, Default)]
struct Entries {
    map: HashMap<Key, (u64, Arc<Entry>)>,
    filled: u64,
}

/// Counter snapshot for health reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Deep-tier lookups answered from a stored report.
    pub deep_hits: u64,
    /// Deep-tier lookups that ran the whole-program analysis.
    pub deep_misses: u64,
    /// Distinct programs currently cached (at most [`CACHE_CAP`]).
    pub entries: u64,
}

impl CompileCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The entry for `text` in `lang`, compiled under `opts` and
    /// verified with `page_words`-word queue pages, and whether the
    /// cache already held it. A miss compiles and verifies outside the
    /// lock, so two concurrent misses on one program may both fill; the
    /// first to store wins and both return it. Compile failures are not
    /// cached: they re-report with full diagnostics.
    ///
    /// # Errors
    ///
    /// The compiler's or assembler's message.
    pub fn lookup(
        &self,
        lang: Lang,
        text: &str,
        opts: &Options,
        page_words: u32,
    ) -> Result<(Arc<Entry>, bool), String> {
        let key = Key { lang, text: text.to_string(), opts: *opts, page_words };
        if let Some((_, hit)) = self.lock().map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(hit), true));
        }
        let entry = Arc::new(Entry::fill(&key)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.lock();
        if let Some((_, stored)) = entries.map.get(&key) {
            return Ok((Arc::clone(stored), false));
        }
        if entries.map.len() >= CACHE_CAP {
            let oldest = entries.map.values().map(|(stamp, _)| *stamp).min();
            entries.map.retain(|_, (stamp, _)| Some(*stamp) != oldest);
        }
        entries.filled += 1;
        let stamp = entries.filled;
        entries.map.insert(key, (stamp, Arc::clone(&entry)));
        Ok((entry, false))
    }

    /// The deep tier of `entry`: the stored report when an earlier
    /// caller already analyzed this program (a deep hit), or a fresh
    /// [`deep_verify`] at the entry's page size, stored for every later
    /// caller (a deep miss). Two racing misses may both analyze; the
    /// first store wins and the results are identical by determinism.
    pub fn deep_report<'e>(&self, entry: &'e Entry) -> &'e DeepReport {
        if let Some(found) = entry.deep.get() {
            self.deep_hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        self.deep_misses.fetch_add(1, Ordering::Relaxed);
        let computed = deep_verify(&entry.object, &VerifyOptions { page_words: entry.page_words });
        entry.deep.get_or_init(|| computed)
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            deep_hits: self.deep_hits.load(Ordering::Relaxed),
            deep_misses: self.deep_misses.load(Ordering::Relaxed),
            entries: self.lock().map.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u32 = 256;
    const EXIT: &str = "main: trap #3,#0";

    fn miss(cache: &CompileCache, lang: Lang, text: &str, opts: &Options, page: u32) -> bool {
        !cache.lookup(lang, text, opts, page).expect("fills").1
    }

    #[test]
    fn keys_separate_kinds_and_options() {
        let cache = CompileCache::new();
        let opts = Options::default();
        let src = "var x:\nseq\n  x := 1";
        assert!(miss(&cache, Lang::Occam, src, &opts, PAGE));
        let other = Options { loop_unrolling: !opts.loop_unrolling, ..opts };
        assert!(miss(&cache, Lang::Occam, src, &other, PAGE), "options shape codegen");
        assert!(
            miss(&cache, Lang::Occam, src, &opts, PAGE * 2),
            "the page size shapes the stored report"
        );
        assert!(miss(&cache, Lang::Assembly, EXIT, &opts, PAGE));
        assert!(
            cache.lookup(Lang::Occam, EXIT, &opts, PAGE).is_err(),
            "the same text in the other language is another program"
        );
        assert!(!miss(&cache, Lang::Occam, src, &other, PAGE));
        assert_eq!(cache.stats().entries, 4);
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache = CompileCache::new();
        let opts = Options::default();
        let (first, hit) = cache.lookup(Lang::Assembly, EXIT, &opts, PAGE).unwrap();
        assert!(!hit);
        let (second, hit) = cache.lookup(Lang::Assembly, EXIT, &opts, PAGE).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second), "a hit shares the stored entry");
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 1, misses: 1, deep_hits: 0, deep_misses: 0, entries: 1 }
        );
    }

    #[test]
    fn deep_reports_fill_once_and_count_hits() {
        let cache = CompileCache::new();
        let (e, _) = cache.lookup(Lang::Assembly, EXIT, &Options::default(), PAGE).unwrap();
        let first = cache.deep_report(&e);
        assert_eq!(*first, deep_verify(&e.object, &VerifyOptions { page_words: PAGE }));
        assert!(std::ptr::eq(first, cache.deep_report(&e)), "the stored report is reused");
        let s = cache.stats();
        assert_eq!((s.deep_hits, s.deep_misses), (1, 1));
    }

    #[test]
    fn failures_are_not_cached() {
        let cache = CompileCache::new();
        let opts = Options::default();
        assert!(cache.lookup(Lang::Assembly, "main: nonsense", &opts, PAGE).is_err());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 0, "a failed fill is not a miss");
    }

    #[test]
    fn the_oldest_program_is_evicted_past_the_cap() {
        let cache = CompileCache::new();
        let opts = Options::default();
        let program = |i: usize| format!("main: send+3 #0,#{i}\n trap #3,#0");
        for i in 0..=CACHE_CAP {
            assert!(miss(&cache, Lang::Assembly, &program(i), &opts, PAGE));
            assert!(cache.stats().entries <= CACHE_CAP as u64);
        }
        assert_eq!(cache.stats().entries, CACHE_CAP as u64);
        assert!(!miss(&cache, Lang::Assembly, &program(CACHE_CAP), &opts, PAGE));
        assert!(miss(&cache, Lang::Assembly, &program(0), &opts, PAGE), "the first fill left");
    }
}
