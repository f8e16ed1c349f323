//! The shared bounded scatter-gather executor.
//!
//! The federation `Router` (PR 2/PR 4) and the shard-per-core store run
//! the same execution shape: fan a query out over N independent units of
//! work through a bounded worker pool, collect the answers into
//! index-tagged slots, and reassemble them in declaration order. This
//! module is that shape, extracted so local shards and remote sources are
//! one code path with two transports — the paper's "thin router" tenet
//! (§2.1.5) applied inward.
//!
//! The pool is bounded: at most `max_workers` scoped threads pull item
//! indices from a shared counter, so scattering over hundreds of items
//! costs a fixed number of threads, not one per item. With one item (or a
//! cap of one) the scatter degenerates to a plain serial loop on the
//! caller's thread — no threads spawned, no locks taken.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(i, &items[i])` for every item, at most `max_workers`
/// concurrently, and returns the results in item order.
///
/// `f` runs on scoped worker threads (or the caller's thread in the serial
/// degenerate case), so it must be `Sync` and may borrow from the caller's
/// stack. A panicking `f` propagates: the scope unwinds to the caller.
pub fn scatter<T, R, F>(items: &[T], max_workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = max_workers.max(1).min(n);
    if n <= 1 || workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &items[i]);
                collected
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((i, r));
            });
        }
    });
    let mut slots = collected.into_inner().unwrap_or_else(|e| e.into_inner());
    slots.sort_unstable_by_key(|(i, _)| *i);
    slots.into_iter().map(|(_, r)| r).collect()
}

/// The shared ranked-merge policy for scatter-gather answers: sorts
/// `(ordinal, hit)` pairs by score descending, breaking ties on the
/// caller-supplied ordinal ascending — the global ingest sequence for the
/// sharded store, the databank registration order for the federation
/// router. The sort is stable, so pairs equal on both keys keep their
/// concatenation order. A hit without a score (an unranked source's answer
/// that was not augmented) sorts as 0.0, i.e. after every scored hit.
///
/// Both coordinators reach it through [`merge_hits`], which is what makes
/// a ranked 4-shard answer and a ranked federated answer order their hits
/// by the same rule — and what the mixed-capability merge tests pin.
fn merge_scored(keyed: &mut [(u64, netmark_xdb::Hit)]) {
    keyed.sort_by(|(oa, a), (ob, b)| {
        let sa = a.score.unwrap_or(0.0);
        let sb = b.score.unwrap_or(0.0);
        sb.partial_cmp(&sa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(oa.cmp(ob))
    });
}

/// The shared order-and-limit step of every scatter-gather merge. Orders
/// `(ordinal, hit)` pairs by `merge_scored` when `ranked`, otherwise by
/// a stable sort on the ordinal, then applies `limit`. Returns the hits
/// and whether the limit cut any. Each caller keeps its own `candidates`
/// and `truncated` policy around this one step.
pub fn merge_hits(
    mut keyed: Vec<(u64, netmark_xdb::Hit)>,
    ranked: bool,
    limit: Option<usize>,
) -> (Vec<netmark_xdb::Hit>, bool) {
    if ranked {
        merge_scored(&mut keyed);
    } else {
        keyed.sort_by_key(|(ordinal, _)| *ordinal);
    }
    let cut = limit.is_some_and(|l| keyed.len() > l);
    if let Some(l) = limit {
        keyed.truncate(l);
    }
    (keyed.into_iter().map(|(_, h)| h).collect(), cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = scatter(&items, 4, |i, &x| {
            // Stagger so completion order differs from submission order.
            std::thread::sleep(Duration::from_micros(((64 - i) % 7) as u64 * 50));
            x * 2
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn concurrency_is_bounded() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..32).collect();
        scatter(&items, 3, |_, _| {
            let cur = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(cur, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn serial_degenerate_runs_on_caller_thread() {
        let caller = std::thread::current().id();
        let threads: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let items = vec![1, 2, 3];
        let out = scatter(&items, 1, |_, &x| {
            threads.lock().unwrap().insert(std::thread::current().id());
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
        let seen = threads.into_inner().unwrap();
        assert_eq!(seen.len(), 1);
        assert!(seen.contains(&caller));
    }

    #[test]
    fn empty_and_single_item() {
        let none: Vec<u8> = Vec::new();
        assert!(scatter(&none, 8, |_, &x| x).is_empty());
        assert_eq!(scatter(&[7u8], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn merge_scored_orders_by_score_then_ordinal() {
        let hit = |doc: &str, score: Option<f64>| netmark_xdb::Hit {
            source: String::new(),
            doc: doc.to_string(),
            context: String::new(),
            content: netmark_model::Node::element("Content"),
            context_node: 0,
            score,
        };
        let mut keyed = vec![
            (3, hit("unscored", None)),
            (2, hit("low", Some(0.5))),
            (9, hit("tied-late", Some(2.0))),
            (1, hit("tied-early", Some(2.0))),
            (5, hit("top", Some(7.25))),
            (4, hit("zero", Some(0.0))),
        ];
        merge_scored(&mut keyed);
        let docs: Vec<&str> = keyed.iter().map(|(_, h)| h.doc.as_str()).collect();
        // Score descending; the 2.0 tie breaks on ordinal; None and 0.0
        // are the same rank and fall back to ordinal order.
        assert_eq!(
            docs,
            vec!["top", "tied-early", "tied-late", "low", "unscored", "zero"]
        );
    }
}
