//! Regression lock for the unified access pipeline's semantics.
//!
//! Before the pipeline refactor, `SectoredCache::access` and
//! `CompressedCache::access_with_data` had drifted from `Cache::access`:
//! cold-miss classification and replacement-policy handling differed
//! between the hand-forked variants. These tests pin the agreed behavior:
//! every variant is write-allocate, classifies cold misses by
//! first-touch of the line address, and honours the configured
//! replacement policy.

use bandwall_cache_sim::{
    Cache, CacheConfig, CompressedCache, ReplacementPolicy, SectoredCache, SectoredCompressedCache,
};
use bandwall_compress::Fpc;

/// A deterministic access stream with reuse, writes, and conflicts.
fn stream() -> Vec<(u64, bool)> {
    let mut out = Vec::new();
    for i in 0..4000u64 {
        let line = (i * 17) % 96; // > capacity of the test caches
        let addr = line * 64 + (i % 8) * 8;
        out.push((addr, i % 3 == 0));
        if i % 5 == 0 {
            out.push((line * 64, false)); // short-reuse read
        }
    }
    out
}

fn config() -> CacheConfig {
    CacheConfig::new(4096, 64, 4).unwrap()
}

/// Incompressible payloads: FPC can only expand them, so every line
/// stores at its full size and the budgeted sets degenerate to the
/// conventional geometry.
fn noise_line(i: u64) -> Vec<u8> {
    (0..64u64)
        .map(|k| ((i * 131 + k).wrapping_mul(2654435761) >> 13) as u8)
        .collect()
}

#[test]
fn one_sector_per_line_matches_conventional_exactly() {
    let mut plain = Cache::new(config());
    let mut sectored = SectoredCache::new(config(), 1);
    // A one-sector footprint is the whole line: prediction changes nothing.
    let mut predictive = SectoredCache::new(config(), 1).with_footprint_prediction();
    for (addr, is_write) in stream() {
        plain.access(addr, is_write);
        sectored.access(addr, is_write);
        predictive.access(addr, is_write);
    }
    for other in [&mut sectored, &mut predictive] {
        assert_eq!(plain.stats(), other.stats());
        assert_eq!(plain.traffic(), other.traffic());
    }
    let flushed = plain.flush();
    assert_eq!(flushed, sectored.flush());
    assert_eq!(flushed, predictive.flush());
}

#[test]
fn incompressible_data_matches_conventional_hit_miss_behaviour() {
    let mut plain = Cache::new(config());
    let mut compressed = CompressedCache::new(config(), Box::new(Fpc::new()));
    for (i, (addr, is_write)) in stream().into_iter().enumerate() {
        let data = noise_line(addr / 64);
        let a = plain.access(addr, is_write);
        let b = compressed.access_with_data(addr, is_write, &data);
        assert_eq!(a.is_hit(), b.is_hit(), "access {i} at {addr:#x}");
    }
    assert_eq!(plain.stats().hits(), compressed.stats().hits());
    assert_eq!(plain.stats().misses(), compressed.stats().misses());
    assert_eq!(
        plain.stats().cold_misses(),
        compressed.stats().cold_misses()
    );
}

#[test]
fn every_variant_is_write_allocate() {
    // A write miss must install the line in all variants — the historic
    // divergence this suite locks against.
    let mut plain = Cache::new(config());
    let mut sectored = SectoredCache::new(config(), 8);
    let mut compressed = CompressedCache::new(config(), Box::new(Fpc::new()));
    let mut combo = SectoredCompressedCache::new(config(), 8, Box::new(Fpc::new()));
    let zeros = vec![0u8; 64];

    assert!(!plain.access(0x1000, true).is_hit());
    assert!(!sectored.access(0x1000, true).is_hit());
    assert!(!compressed.access_with_data(0x1000, true, &zeros).is_hit());
    assert!(!combo.access_with_data(0x1000, true, &zeros).is_hit());

    assert!(plain.contains(0x1000), "conventional write-allocates");
    assert!(sectored.contains(0x1000), "sectored write-allocates");
    assert!(compressed.contains(0x1000), "compressed write-allocates");
    assert!(combo.contains(0x1000), "combined write-allocates");

    // And the written sector is dirty: a flush writes it back.
    for victims in [
        plain.flush(),
        sectored.flush(),
        compressed.flush(),
        combo.flush(),
    ] {
        assert_eq!(victims.len(), 1);
        assert!(victims[0].dirty());
    }
}

#[test]
fn cold_misses_are_classified_by_first_touch_in_every_variant() {
    let mut sectored = SectoredCache::new(config(), 8);
    let mut compressed = CompressedCache::new(config(), Box::new(Fpc::new()));
    let zeros = vec![0u8; 64];

    // Touch 96 distinct lines (capacity is 64), then re-touch them all:
    // the second pass has no cold misses even where capacity missed.
    for line in 0..96u64 {
        sectored.access(line * 64, false);
        compressed.access_with_data(line * 64, false, &zeros);
    }
    let sectored_cold = sectored.stats().cold_misses();
    let compressed_cold = compressed.stats().cold_misses();
    assert_eq!(sectored_cold, 96);
    for line in 0..96u64 {
        sectored.access(line * 64, false);
        compressed.access_with_data(line * 64, false, &zeros);
    }
    assert_eq!(
        sectored.stats().cold_misses(),
        sectored_cold,
        "revisits are not cold"
    );
    assert_eq!(compressed.stats().cold_misses(), compressed_cold);
}

#[test]
fn sectored_honours_the_configured_replacement_policy() {
    // FIFO vs LRU must diverge on a stream where the oldest line is also
    // the most recently used: re-touching way 0 saves it under LRU but
    // not under FIFO.
    let run = |policy: ReplacementPolicy| {
        let mut cache =
            SectoredCache::new(CacheConfig::new(256, 64, 4).unwrap().with_policy(policy), 4);
        // One set (256/64/4 = 1 set): fill 4 ways, re-touch line 0, add a
        // 5th line, then probe line 0.
        for line in 0..4u64 {
            cache.access(line * 64, false);
        }
        cache.access(0, false); // line 0 now MRU but still oldest
        cache.access(4 * 64, false); // eviction decision
        cache.contains(0)
    };
    assert!(run(ReplacementPolicy::Lru), "LRU keeps the re-touched line");
    assert!(
        !run(ReplacementPolicy::Fifo),
        "FIFO evicts the oldest line regardless of reuse"
    );
}

#[test]
fn compressed_honours_the_configured_replacement_policy() {
    let run = |policy: ReplacementPolicy| {
        let mut cache = CompressedCache::new(
            CacheConfig::new(256, 64, 4).unwrap().with_policy(policy),
            Box::new(Fpc::new()),
        );
        // Incompressible lines: exactly 4 fit the one set's budget.
        for line in 0..4u64 {
            cache.access_with_data(line * 64, false, &noise_line(line));
        }
        cache.access_with_data(0, false, &noise_line(0));
        cache.access_with_data(4 * 64, false, &noise_line(4));
        cache.contains(0)
    };
    assert!(run(ReplacementPolicy::Lru), "LRU keeps the re-touched line");
    assert!(
        !run(ReplacementPolicy::Fifo),
        "FIFO evicts the oldest line regardless of reuse"
    );
}
