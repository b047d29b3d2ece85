//! Deterministic data-parallel execution layer for the graphalign workspace.
//!
//! Every hot kernel in the workspace (dense products, Sinkhorn scalings,
//! graphlet counting, per-node similarity rows) is expressed through the
//! fork/join helpers in this crate instead of spawning threads directly. The
//! helpers make one promise that plain thread pools do not:
//!
//! > **The result is a pure function of the input — never of the thread
//! > count.**
//!
//! That holds because work is split at *fixed chunk boundaries* chosen from
//! the problem size alone, each chunk is computed independently, and any
//! reduction over chunk results happens sequentially in chunk order. Running
//! with 1 thread or with 64 produces bit-identical floating-point output, so
//! correctness tests and paper-figure reproductions are insensitive to the
//! machine's core count.
//!
//! # Threads
//!
//! Chunks are executed by scoped OS threads from the standard library (the
//! workspace builds offline, so no external thread-pool crate is available).
//! The thread count is taken from, in order: [`set_max_threads`], the
//! `GRAPHALIGN_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`]; the last two are read once per
//! process. At one thread every helper runs
//! the same chunk schedule inline on the caller and no thread is spawned.
//!
//! Small inputs (below [`MIN_PAR_WORK`] work items) also run inline: scoped
//! threads cost tens of microseconds to fork and join, which would dominate
//! kernels on small matrices.

pub mod budget;
pub mod fault;
pub mod telemetry;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Work threshold (in `cost_per_item` units, 1 unit ≈ one multiply-add)
/// below which helpers run inline: forking scoped threads costs tens of
/// microseconds, which would dominate kernels this small.
pub const MIN_PAR_WORK: usize = 1 << 17;

/// Thread-count override installed by [`set_max_threads`]; 0 means "unset".
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Caps the number of worker threads used by all helpers in this crate.
///
/// Takes precedence over `GRAPHALIGN_THREADS`, at any time. Passing `0`
/// clears the override. Because results are thread-count independent, this
/// knob only affects wall-clock time.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The number of worker threads helpers may use for large inputs: the
/// [`set_max_threads`] override, else the default. The default
/// (`GRAPHALIGN_THREADS`, else the core count) is read once per process:
/// querying the core count reads the cgroup files and costs about a quarter
/// of a two-thread fork and join.
pub fn max_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    let explicit = MAX_THREADS.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    *DEFAULT.get_or_init(|| {
        std::env::var("GRAPHALIGN_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Splits `0..len` into the fixed chunk ranges all helpers use: `chunk_len`
/// items each, last chunk possibly shorter. The schedule depends only on
/// `len` and `chunk_len` — never on the thread count — which is what makes
/// chunked reductions deterministic.
pub fn chunk_ranges(len: usize, chunk_len: usize) -> Vec<Range<usize>> {
    assert!(chunk_len > 0, "chunk_len must be positive");
    (0..len.div_ceil(chunk_len)).map(|c| c * chunk_len..((c + 1) * chunk_len).min(len)).collect()
}

/// Picks the chunk length for a map over items of roughly uniform cost
/// `cost_per_item` (arbitrary units where 1 unit ≈ one multiply-add).
///
/// The quantum is a **pure function of the per-item cost** — deliberately
/// independent of the thread count — so chunk boundaries (and therefore the
/// combining order of chunked reductions) never change with the machine.
/// Each chunk carries about `MIN_PAR_WORK / 2` work units: enough to
/// amortize fork overhead, small enough that work-stealing over chunks
/// balances load across any realistic core count.
fn auto_chunk_len(cost_per_item: usize) -> usize {
    (MIN_PAR_WORK / 2).div_ceil(cost_per_item.max(1)).max(1)
}

/// How many workers run `chunks` chunks over `len` items of cost
/// `cost_per_item`: 1 (inline on the caller) for a single chunk, a single
/// allowed thread, or less than [`MIN_PAR_WORK`] work in all; otherwise
/// [`max_threads`], capped at the chunk count.
fn workers_for(len: usize, cost_per_item: usize, chunks: usize) -> usize {
    if chunks < 2 || len.saturating_mul(cost_per_item.max(1)) < MIN_PAR_WORK {
        return 1;
    }
    max_threads().min(chunks)
}

/// Runs `work` once per share, each share on its own scoped thread, and
/// returns the results in share order. This is the one place the crate
/// spawns threads: every worker adopts the caller's budget and telemetry
/// sink, and a worker's panic is re-raised on the caller with its own
/// payload once all workers have finished.
fn run_workers<S: Send, A: Send>(shares: Vec<S>, work: impl Fn(S) -> A + Sync) -> Vec<A> {
    let work = &work;
    let (parent_budget, parent_sink) = (budget::current(), telemetry::current());
    let joined: Vec<std::thread::Result<A>> = std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| {
                let (parent_budget, parent_sink) = (parent_budget.clone(), parent_sink.clone());
                s.spawn(move || {
                    let _budget = budget::adopt(parent_budget);
                    let _telemetry = telemetry::adopt(parent_sink);
                    work(share)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    joined.into_iter().map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p))).collect()
}

/// Runs `f(row_range, block)` over blocks of whole rows of a row-major
/// buffer, in parallel for large inputs. Blocks are split at row boundaries
/// (`row_len` elements per row) so matrix kernels can hand out disjoint
/// row slices; `row_len = 1` makes every element a row.
///
/// `cost_per_row` is the approximate work per row (1 ≈ one flop); it only
/// influences the inline/parallel decision and block sizing, never the
/// result.
///
/// # Panics
/// Panics (debug) when `data.len()` is not a multiple of `row_len`.
pub fn for_each_row_block_mut<T: Send>(
    data: &mut [T],
    row_len: usize,
    cost_per_row: usize,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    if data.is_empty() || row_len == 0 {
        return;
    }
    debug_assert_eq!(data.len() % row_len, 0, "data must hold whole rows");
    let rows = data.len() / row_len;
    let ranges = chunk_ranges(rows, auto_chunk_len(cost_per_row));
    let workers = workers_for(rows, cost_per_row, ranges.len());
    let blocks = ranges.into_iter().scan(data, |rest, r| {
        let (head, tail) = std::mem::take(rest).split_at_mut(r.len() * row_len);
        *rest = tail;
        Some((r, head))
    });
    if workers == 1 {
        blocks.for_each(|(r, block)| f(r, block));
        return;
    }
    // Deal the disjoint blocks round-robin to the workers.
    let mut shares: Vec<Vec<(Range<usize>, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
    for (c, block) in blocks.enumerate() {
        shares[c % workers].push(block);
    }
    run_workers(shares, |share| share.into_iter().for_each(|(r, block)| f(r, block)));
}

/// Computes `(0..len).map(f)` into a `Vec`, in parallel for large inputs.
///
/// Equivalent to the sequential map for every thread count: each index is
/// produced exactly once, by exactly one worker, into its own slot.
pub fn map_collect<T: Send>(
    len: usize,
    cost_per_item: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let ranges = chunk_ranges(len, auto_chunk_len(cost_per_item));
    let workers = workers_for(len, cost_per_item, ranges.len());
    if workers == 1 {
        return (0..len).map(f).collect();
    }
    let parts = fold_parallel(&ranges, workers, |r| r.map(&f).collect::<Vec<T>>());
    let mut out = Vec::with_capacity(len);
    for mut part in parts {
        out.append(&mut part);
    }
    out
}

/// Extracts a human-readable message from a caught panic payload
/// (`panic!("...")` produces `&str` or `String`; anything else is opaque).
/// Shared by every panic-isolation site ([`try_map_collect`] here, the
/// serving layer's worker isolation).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Panic-isolating [`map_collect`]: computes `(0..len).map(f)` into a `Vec`,
/// converting a panic in `f(i)` into `Err(message)` for that index instead
/// of unwinding through the workers to the caller.
///
/// The chunk schedule is identical to [`map_collect`]'s — a pure function of
/// `len` and `cost_per_item` — so both the successful values and the
/// positions of failures are bit-identical for every thread count. Each index
/// is caught independently: one panicking item never discards its chunk
/// neighbors' results.
///
/// The closure is wrapped in [`std::panic::AssertUnwindSafe`]; callers
/// sharing writable state across items (none of the harness call sites do)
/// must ensure a mid-item panic cannot leave that state torn.
pub fn try_map_collect<T: Send>(
    len: usize,
    cost_per_item: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<Result<T, String>> {
    map_collect(len, cost_per_item, |i| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)))
            .map_err(|payload| panic_message(payload.as_ref()))
    })
}

/// Applies `fold` to each fixed chunk of `0..len` and returns the per-chunk
/// results **in chunk order**, computing chunks in parallel for large inputs.
///
/// This is the deterministic-reduction primitive: callers fold the returned
/// vector sequentially, so the combining order is fixed regardless of thread
/// count. `cost_per_item` approximates per-index work for sizing decisions.
pub fn fold_chunks<A: Send>(
    len: usize,
    cost_per_item: usize,
    fold: impl Fn(Range<usize>) -> A + Sync,
) -> Vec<A> {
    let ranges = chunk_ranges(len, auto_chunk_len(cost_per_item));
    let workers = workers_for(len, cost_per_item, ranges.len());
    if workers == 1 {
        return ranges.into_iter().map(fold).collect();
    }
    fold_parallel(&ranges, workers, fold)
}

/// Deterministic parallel sum of `f(i)` over `0..len`: chunk partial sums are
/// accumulated left-to-right within each fixed chunk and combined in chunk
/// order, so the floating-point result is thread-count independent (though it
/// may differ from a single un-chunked left-to-right sum).
pub fn sum_indexed(len: usize, cost_per_item: usize, f: impl Fn(usize) -> f64 + Sync) -> f64 {
    fold_chunks(len, cost_per_item, |r| r.map(&f).sum::<f64>()).into_iter().sum()
}

/// Folds `0..len` in round-robin strides (`start, start+step, …`), one
/// stride per worker, returning per-stride results in stride order.
///
/// Unlike [`fold_chunks`], the partition here depends on the thread count,
/// so this is only appropriate for **exactly associative** accumulations —
/// integer counters and the like — where any grouping yields the same total.
/// The round-robin stride balances heavily skewed per-index costs (e.g. ESU
/// graphlet trees, whose size shrinks with the root index).
pub fn fold_strided<A: Send>(
    len: usize,
    cost_per_item: usize,
    fold: impl Fn(usize, usize) -> A + Sync,
) -> Vec<A> {
    if len == 0 {
        return Vec::new();
    }
    let workers = workers_for(len, cost_per_item, len);
    if workers == 1 {
        return vec![fold(0, 1)];
    }
    run_workers((0..workers).collect(), |w| fold(w, workers))
}

/// Runs `fold` over `ranges` on `workers` threads, each claiming the next
/// unclaimed chunk until none is left, and returns the results in chunk
/// order.
fn fold_parallel<A: Send>(
    ranges: &[Range<usize>],
    workers: usize,
    fold: impl Fn(Range<usize>) -> A + Sync,
) -> Vec<A> {
    let next = AtomicUsize::new(0);
    let mut produced: Vec<(usize, A)> = run_workers((0..workers).collect(), |_| {
        let mut produced = Vec::new();
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            let Some(r) = ranges.get(c) else { return produced };
            produced.push((c, fold(r.clone())));
        }
    })
    .into_iter()
    .flatten()
    .collect();
    produced.sort_unstable_by_key(|&(c, _)| c);
    produced.into_iter().map(|(_, a)| a).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_tile_the_input_exactly() {
        for len in [0usize, 1, 5, 4096, 4097, 10_000] {
            for chunk in [1usize, 7, 4096] {
                let ranges = chunk_ranges(len, chunk);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(r.end > r.start);
                    assert!(r.end - r.start <= chunk);
                    expect = r.end;
                }
                assert_eq!(expect, len);
            }
        }
    }

    #[test]
    fn map_collect_matches_sequential_map() {
        let n = 300_000;
        let expected: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
        for threads in [1, 2, 7] {
            set_max_threads(threads);
            let got = map_collect(n, 1, |i| (i as f64).sqrt());
            assert_eq!(got, expected, "threads={threads}");
        }
        set_max_threads(0);
    }

    #[test]
    fn single_item_rows_write_every_slot_once() {
        let n = 300_000;
        for threads in [1, 3, 16] {
            set_max_threads(threads);
            let mut data = vec![0u64; n];
            for_each_row_block_mut(&mut data, 1, 1, |range, chunk| {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    *slot += (range.start + off) as u64 + 1;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 + 1), "threads={threads}");
        }
        set_max_threads(0);
    }

    #[test]
    fn sum_is_bit_identical_across_thread_counts() {
        // Floating-point catastrophe bait: wildly varying magnitudes.
        let n = 400_000;
        let f = |i: usize| ((i * 2654435761) % 1000) as f64 * 1e-3 + (i as f64).powi(3) * 1e-12;
        set_max_threads(1);
        let s1 = sum_indexed(n, 1, f);
        let mut sums = vec![s1];
        for threads in [2, 5, 32] {
            set_max_threads(threads);
            sums.push(sum_indexed(n, 1, f));
        }
        set_max_threads(0);
        assert!(
            sums.iter().all(|s| s.to_bits() == s1.to_bits()),
            "sums differ across thread counts: {sums:?}"
        );
    }

    #[test]
    fn fold_chunks_preserves_chunk_order() {
        set_max_threads(8);
        let ids = fold_chunks(400_000, 1, |r| r.start);
        assert!(ids.len() > 1, "expected multiple chunks");
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        set_max_threads(0);
    }

    #[test]
    fn row_blocks_split_on_row_boundaries() {
        let (rows, cols) = (20_000, 17);
        for threads in [1, 4] {
            set_max_threads(threads);
            let mut data = vec![0.0f64; rows * cols];
            for_each_row_block_mut(&mut data, cols, cols, |row_range, block| {
                assert_eq!(block.len(), (row_range.end - row_range.start) * cols);
                for (off, row) in block.chunks_mut(cols).enumerate() {
                    let i = row_range.start + off;
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = (i * cols + j) as f64;
                    }
                }
            });
            assert!(data.iter().enumerate().all(|(p, &v)| v == p as f64), "threads={threads}");
        }
        set_max_threads(0);
    }

    #[test]
    fn small_inputs_run_inline() {
        // Nothing observable to assert beyond correctness, but exercise the
        // inline path explicitly (len * cost < MIN_PAR_WORK).
        let mut data = vec![1.0f64; 8];
        for_each_row_block_mut(&mut data, 1, 1, |_, chunk| {
            for v in chunk {
                *v *= 2.0;
            }
        });
        assert!(data.iter().all(|&v| v == 2.0));
        assert_eq!(sum_indexed(8, 1, |i| i as f64), 28.0);
    }

    #[test]
    fn strided_integer_counts_are_exact_for_any_thread_count() {
        let n = 300_000;
        let total_seq: u64 = (0..n as u64).sum();
        for threads in [1, 3, 8] {
            set_max_threads(threads);
            let partials = fold_strided(n, 1, |start, step| {
                let mut acc = 0u64;
                let mut i = start;
                while i < n {
                    acc += i as u64;
                    i += step;
                }
                acc
            });
            assert_eq!(partials.iter().sum::<u64>(), total_seq, "threads={threads}");
        }
        set_max_threads(0);
    }

    #[test]
    fn try_map_collect_matches_map_collect_when_nothing_panics() {
        let n = 300_000;
        for threads in [1, 2, 7] {
            set_max_threads(threads);
            let got = try_map_collect(n, 1, |i| i * 2);
            assert!(
                got.iter().enumerate().all(|(i, r)| r.as_ref() == Ok(&(i * 2))),
                "threads={threads}"
            );
        }
        set_max_threads(0);
    }

    /// Serializes tests that swap the (global) panic hook.
    static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn try_map_collect_isolates_panics_deterministically() {
        let _lock = HOOK_LOCK.lock().unwrap();
        // Keep panic-hook noise out of the test log while panics are caught.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let n = 300_000;
        let poison = |i: usize| {
            if i % 97 == 13 {
                panic!("boom at {i}");
            }
            i as u64
        };
        set_max_threads(1);
        let baseline = try_map_collect(n, 1, poison);
        for threads in [2, 8] {
            set_max_threads(threads);
            let got = try_map_collect(n, 1, poison);
            assert_eq!(got, baseline, "threads={threads}");
        }
        set_max_threads(0);
        std::panic::set_hook(prev);
        assert_eq!(baseline[13], Err("boom at 13".to_string()));
        assert_eq!(baseline[14], Ok(14));
        let failures = baseline.iter().filter(|r| r.is_err()).count();
        assert_eq!(failures, n.div_ceil(97), "one failure per residue class");
    }

    #[test]
    fn try_map_collect_reports_string_payloads() {
        let _lock = HOOK_LOCK.lock().unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let got = try_map_collect(2, 1, |i| {
            if i == 1 {
                // String (formatted) payload, unlike the &'static str case.
                panic!("{}", format!("dynamic {i}"));
            }
            i
        });
        std::panic::set_hook(prev);
        assert_eq!(got[0], Ok(0));
        assert_eq!(got[1], Err("dynamic 1".to_string()));
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_own_message() {
        let _lock = HOOK_LOCK.lock().unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        set_max_threads(2);
        // Each item forks at 2 threads and panics in exactly one chunk.
        let (n, second) = (400_000, auto_chunk_len(1));
        let got = try_map_collect(3, 1, |helper| match helper {
            0 => for_each_row_block_mut(&mut vec![0u8; n], 1, 1, |r, _| {
                if r.start == second {
                    panic!("block 1 failed");
                }
            }),
            1 => {
                fold_chunks(n, 1, |r| {
                    if r.start == second {
                        panic!("chunk 1 failed");
                    }
                });
            }
            _ => {
                fold_strided(n, 1, |w, _| {
                    if w == 1 {
                        panic!("stride 1 failed");
                    }
                });
            }
        });
        set_max_threads(0);
        std::panic::set_hook(prev);
        let expected = ["block 1 failed", "chunk 1 failed", "stride 1 failed"];
        assert_eq!(got, expected.map(|m| Err(m.to_string())));
    }

    #[test]
    fn worker_threads_inherit_the_installed_budget() {
        set_max_threads(4);
        let _g = budget::install(Some(std::time::Duration::ZERO));
        // Every index polls the budget from whatever worker runs it.
        let seen = map_collect(300_000, 1, |_| budget::exceeded());
        set_max_threads(0);
        assert!(seen.iter().all(|&b| b), "all workers must see the expired budget");
    }

    #[test]
    fn worker_threads_inherit_the_installed_telemetry_sink() {
        set_max_threads(4);
        let _g = telemetry::install(false);
        // Every index bumps the shared counter from whatever worker runs it.
        map_collect(300_000, 1, |_| telemetry::count_matmul());
        set_max_threads(0);
        assert_eq!(telemetry::drain().matmuls, 300_000);
    }

    #[test]
    fn max_threads_is_positive_and_overridable() {
        assert!(max_threads() >= 1);
        set_max_threads(3);
        assert_eq!(max_threads(), 3);
        set_max_threads(0);
        assert!(max_threads() >= 1);
    }
}
