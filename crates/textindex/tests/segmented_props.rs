//! Property tests: the segmented index against the reference single-map
//! model, over random interleavings of writer and maintenance operations,
//! plus a query-consistency check while compaction runs concurrently.

use netmark_textindex::{
    query_terms, sum_scores, CompactionPolicy, InvertedIndex, Placement, SegmentedIndex,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

const VOCAB: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "engine", "shuttle", "budget", "gap", "million", "schedule",
    "risk", "apollo",
];

/// One step of the random interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Add a document built from these vocabulary indices.
    Add(Vec<u8>),
    /// Remove one live document (selector modulo the live count).
    Remove(u8),
    /// Seal the memtable and publish a snapshot.
    Commit,
    /// Run compaction passes until no plan fires.
    Compact,
    /// Persist to a fresh directory, reload, and continue on the loaded
    /// instance (round-trips the manifest + segment files mid-history).
    SaveLoad,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(0u8..VOCAB.len() as u8, 1..6).prop_map(Op::Add),
        (0u8..255u8).prop_map(Op::Remove),
        Just(Op::Commit),
        Just(Op::Compact),
        Just(Op::SaveLoad),
    ]
}

/// A placement derived from the id: three ids per document, each governed
/// by its document's first id except every fifth, which has no context.
fn placed(id: u64) -> Placement {
    Placement {
        doc: id / 3,
        context: (!id.is_multiple_of(5)).then_some(id - id % 3),
    }
}

fn doc_text(words: &[u8]) -> String {
    let mut s = String::new();
    for (i, w) in words.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(VOCAB[*w as usize % VOCAB.len()]);
    }
    s
}

/// An aggressive policy so short histories still trigger merges, chain
/// bounding, and tombstone purges.
fn tight_policy() -> CompactionPolicy {
    CompactionPolicy {
        small_postings: 64,
        max_segments: 3,
        tombstone_percent: 10,
    }
}

/// The lookup battery compared against the oracle: every vocabulary term,
/// present, reversed and absent phrases, and no terms at all.
fn query_battery() -> Vec<Vec<String>> {
    let words = |ws: &[&str]| ws.iter().map(|w| w.to_string()).collect::<Vec<_>>();
    let mut qs: Vec<Vec<String>> = VOCAB.iter().map(|w| words(&[w])).collect();
    qs.push(words(&["alpha", "beta"]));
    qs.push(words(&["beta", "alpha"]));
    qs.push(words(&["engine", "shuttle", "budget"]));
    qs.push(words(&["budget", "shuttle", "engine"]));
    qs.push(words(&["gap", "gap"]));
    qs.push(words(&["zz"]));
    qs.push(words(&["alpha", "zz"]));
    qs.push(Vec::new());
    qs
}

/// Live ids of the current snapshot holding the phrase `terms`.
fn phrase(seg: &SegmentedIndex, terms: &[String]) -> Vec<u64> {
    let placed = seg.snapshot().phrase_placed(terms);
    placed.into_iter().map(|(id, _)| id).collect()
}

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "nm-tix-props-{tag}-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of add / remove / commit / compact / save+load
    /// leaves the segmented index equivalent to the reference single-map
    /// model replaying the same document history.
    #[test]
    fn segmented_equals_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let mut seg = SegmentedIndex::with_policy(tight_policy());
        // The oracle history: every add in order, then the removals.
        let mut added: Vec<(u64, String)> = Vec::new();
        let mut removed: Vec<u64> = Vec::new();
        let mut live: Vec<u64> = Vec::new();
        let mut next_id: u64 = 1;

        for op in &ops {
            match op {
                Op::Add(words) => {
                    let text = doc_text(words);
                    prop_assert!(seg.add(next_id, placed(next_id), &text));
                    added.push((next_id, text));
                    live.push(next_id);
                    next_id += 1;
                }
                Op::Remove(sel) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = *sel as usize % live.len();
                    let id = live.remove(idx);
                    prop_assert!(seg.remove(id));
                    removed.push(id);
                }
                Op::Commit => {
                    seg.commit();
                }
                Op::Compact => {
                    seg.compact();
                }
                Op::SaveLoad => {
                    let dir = scratch_dir("sl");
                    seg.save(&dir).expect("save");
                    let loaded = SegmentedIndex::load_with(&dir, tight_policy())
                        .expect("reload what was just saved");
                    let _ = std::fs::remove_dir_all(&dir);
                    seg = loaded;
                }
            }
        }
        seg.commit();

        let mut oracle = InvertedIndex::new();
        for (id, text) in &added {
            oracle.add(*id, text);
        }
        for id in &removed {
            oracle.remove(*id);
        }

        prop_assert_eq!(seg.len(), oracle.len());
        for q in query_battery() {
            let got = phrase(&seg, &q);
            let want = oracle.phrase(&q);
            prop_assert!(got == want, "query {:?} diverges: {:?} vs {:?}", q, got, want);
        }
        // The live ids are the segments' ids minus the tombstones.
        let snap = seg.snapshot();
        let ids: Vec<u64> = snap
            .segments()
            .iter()
            .flat_map(|s| s.ids().iter().copied())
            .filter(|id| !snap.tombstones().contains(id))
            .collect();
        prop_assert_eq!(&ids, &live);
        // Placements ride along through seals, merges and reloads.
        for &id in &live {
            prop_assert_eq!(snap.placement(id), Some(placed(id)));
        }
        for id in &removed {
            prop_assert_eq!(snap.placement(*id), None);
        }
        for probe in ["alpha beta", "engine", "budget million"] {
            // BM25 scores are a global function of the snapshot's integer
            // corpus stats, so they are bit-identical no matter how the
            // history was segmented, compacted, or reloaded. `sum_scores`
            // returns ascending ids; the oracle ranks by score.
            let per_term = query_terms(probe).into_iter().map(|t| snap.term_scores(&t));
            let scored: Vec<(u64, u64)> = sum_scores(per_term)
                .into_iter()
                .map(|(id, _, score)| (id, score.to_bits()))
                .collect();
            let mut want: Vec<(u64, u64)> = oracle
                .search_bm25(probe)
                .into_iter()
                .map(|(id, score)| (id, score.to_bits()))
                .collect();
            want.sort_unstable();
            prop_assert_eq!(scored, want);
        }
    }
}

/// Readers racing a compaction storm must observe identical results
/// throughout: compaction only reorganizes storage, never visible state.
#[test]
fn queries_stable_during_concurrent_compaction() {
    let seg = std::sync::Arc::new(SegmentedIndex::with_policy(tight_policy()));
    // Many small runs with interleaved tombstones → plenty to compact.
    let mut id = 1u64;
    for batch in 0..40 {
        for i in 0..8 {
            let text = format!(
                "{} {} extra{}",
                VOCAB[(batch + i) % VOCAB.len()],
                VOCAB[(batch * 3 + i) % VOCAB.len()],
                batch
            );
            assert!(seg.add(id, placed(id), &text));
            id += 1;
        }
        seg.commit();
    }
    for dead in (1..id).step_by(5) {
        seg.remove(dead);
    }
    seg.commit();

    let battery = query_battery();
    let expected: Vec<Vec<u64>> = battery.iter().map(|q| phrase(&seg, q)).collect();

    std::thread::scope(|scope| {
        let compactor = scope.spawn(|| {
            // Drive compaction to convergence while readers hammer away.
            seg.compact()
        });
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    for _ in 0..200 {
                        for (q, want) in battery.iter().zip(&expected) {
                            let got = phrase(&seg, q);
                            assert_eq!(&got, want, "query {q:?} changed under compaction");
                        }
                    }
                })
            })
            .collect();
        let passes = compactor.join().unwrap();
        assert!(passes > 0, "the storm actually compacted something");
        for r in readers {
            r.join().unwrap();
        }
    });

    // Post-compaction state still matches, and tombstones were purged.
    for (q, want) in battery.iter().zip(&expected) {
        assert_eq!(&phrase(&seg, q), want);
    }
    assert_eq!(
        seg.stats().tombstones,
        0,
        "compaction purged the tombstones"
    );
}
