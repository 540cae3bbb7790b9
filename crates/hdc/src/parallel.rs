//! Chunked fan-out for the batched inference and training engines.
//!
//! The engines split a batch into contiguous row chunks and process each
//! chunk independently (encode into a chunk-local buffer, score, write the
//! chunk's slice of the output).  Chunks are claimed from a shared
//! atomic-counter work queue by `std::thread::scope` workers; the
//! dependency-free build environment has no `rayon`, and scoped threads
//! plus a fetch-add counter give the same work-stealing shape for this
//! embarrassingly parallel workload.  At one worker the same kernels run
//! serially on the calling thread, and results are identical at every
//! worker count (each output element is written by exactly one chunk, and
//! kernels are deterministic per row).
//!
//! The worker count is a property of the host, so it has exactly one
//! setting: [`engine_threads`], which reads the `CYBERHD_THREADS`
//! environment variable.

/// A contiguous range of batch rows assigned to one worker invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowChunk {
    /// First row (inclusive).
    pub start: usize,
    /// One past the last row.
    pub end: usize,
}

impl RowChunk {
    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Splits `rows` into chunks of at most `chunk_rows` rows.
pub fn chunks_of(rows: usize, chunk_rows: usize) -> Vec<RowChunk> {
    let chunk_rows = chunk_rows.max(1);
    (0..rows)
        .step_by(chunk_rows)
        .map(|start| RowChunk { start, end: (start + chunk_rows).min(rows) })
        .collect()
}

/// Number of worker threads every fan-out of the engine uses: batched
/// inference, training, regeneration and the serve engine's flushes.
///
/// `CYBERHD_THREADS` when it is set to a number (`0` counts as `1`);
/// otherwise — unset or unparseable — the machine's available parallelism.
/// `CYBERHD_THREADS=1` runs every engine serially on the calling thread.
/// Read on every call, so it is the one thread setting of the engine.
pub fn engine_threads() -> usize {
    if let Ok(v) = std::env::var("CYBERHD_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    available_cores()
}

/// The machine's available parallelism, independent of the
/// `CYBERHD_THREADS` override — the sizing signal for
/// things that scale with *hardware* rather than with the engine's worker
/// pool (default shard counts, bench scaling assertions that only hold on
/// multi-core hosts).  Always at least 1.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Runs `kernel` over every chunk of `out`, each chunk paired with its row
/// range, fanning out across at most `threads` scoped workers.
///
/// `out` is split into disjoint `chunk_rows * out_stride` slices, so kernels
/// may write their chunk freely without synchronization.  Worker panics
/// propagate to the caller.
///
/// Chunk jobs are claimed from a shared queue with an atomic fetch-add
/// counter, so a worker that draws short chunks (or a ragged tail) simply
/// claims the next job instead of idling while statically assigned peers
/// finish — the cheap `std`-only form of work stealing.  Chunk boundaries
/// depend only on `rows` and `chunk_rows`, never on `threads`, and every
/// chunk writes its own disjoint slice, so outputs are identical for every
/// thread count.
///
/// This is the single fork-join primitive the whole engine builds on; with
/// `threads <= 1` (or a single chunk) it degrades to a plain serial loop
/// on the calling thread with no thread overhead.
pub fn for_each_chunk<T, F>(
    rows: usize,
    chunk_rows: usize,
    out: &mut [T],
    out_stride: usize,
    threads: usize,
    kernel: F,
) where
    T: Send,
    F: Fn(RowChunk, &mut [T]) + Sync,
{
    debug_assert_eq!(out.len(), rows * out_stride, "output buffer shape mismatch");
    let chunk_rows = chunk_rows.max(1);
    let mut jobs: Vec<(RowChunk, &mut [T])> = Vec::new();
    {
        let mut rest = out;
        let mut start = 0usize;
        while start < rows {
            let end = (start + chunk_rows).min(rows);
            let (head, tail) = rest.split_at_mut((end - start) * out_stride);
            jobs.push((RowChunk { start, end }, head));
            rest = tail;
            start = end;
        }
    }

    let workers = threads.max(1).min(jobs.len().max(1));
    if workers <= 1 {
        for (chunk, slice) in jobs {
            kernel(chunk, slice);
        }
        return;
    }

    // Work-stealing queue: jobs sit in claim slots and workers pop the next
    // index with a relaxed fetch-add.  Each slot's mutex is locked exactly
    // once, by the single worker that claimed its index, so there is no
    // contention — the mutex only exists to hand the `&mut` job out of the
    // shared vector without `unsafe`.
    let queue: Vec<std::sync::Mutex<Option<(RowChunk, &mut [T])>>> =
        jobs.into_iter().map(|job| std::sync::Mutex::new(Some(job))).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(slot) = queue.get(i) else { break };
                let job = slot.lock().expect("claim slots are never poisoned").take();
                if let Some((chunk, slice)) = job {
                    kernel(chunk, slice);
                }
            });
        }
    });
}

/// Runs `work` over every job of `jobs`, fanning out across at most
/// `threads` scoped workers — the owned-job twin of [`for_each_chunk`] for
/// workloads that are a list of independent tasks rather than disjoint
/// slices of one output buffer (e.g. the serve engine flushing many tenant
/// lanes at once).
///
/// Jobs are claimed from the same atomic fetch-add queue as
/// [`for_each_chunk`], so stragglers never idle statically assigned peers.
/// With `threads <= 1` (or a single job) the jobs run serially **in
/// order** on the calling thread; otherwise completion order is
/// unspecified, so `work` must not depend on inter-job ordering.
/// Worker panics propagate to the caller.
pub fn for_each_task<T, F>(jobs: Vec<T>, threads: usize, work: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let workers = threads.max(1).min(jobs.len());
    if workers <= 1 {
        for job in jobs {
            work(job);
        }
        return;
    }
    // Claim slots, as in `for_each_chunk`: each slot's mutex is locked
    // exactly once by the worker that fetch-added its index.
    let queue: Vec<std::sync::Mutex<Option<T>>> =
        jobs.into_iter().map(|job| std::sync::Mutex::new(Some(job))).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(slot) = queue.get(i) else { break };
                let job = slot.lock().expect("claim slots are never poisoned").take();
                if let Some(job) = job {
                    work(job);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_all_rows_without_overlap() {
        let chunks = chunks_of(10, 3);
        assert_eq!(
            chunks,
            vec![
                RowChunk { start: 0, end: 3 },
                RowChunk { start: 3, end: 6 },
                RowChunk { start: 6, end: 9 },
                RowChunk { start: 9, end: 10 },
            ]
        );
        assert!(chunks.iter().all(|c| !c.is_empty()));
        assert_eq!(chunks.iter().map(RowChunk::len).sum::<usize>(), 10);
        assert!(chunks_of(0, 4).is_empty());
    }

    #[test]
    fn engine_threads_is_at_least_one() {
        assert!(engine_threads() >= 1);
    }

    #[test]
    fn available_cores_is_at_least_one() {
        assert!(available_cores() >= 1);
    }

    fn run_sum_kernel(rows: usize, chunk_rows: usize, threads: usize) -> Vec<f32> {
        let stride = 4;
        let mut out = vec![0.0f32; rows * stride];
        for_each_chunk(rows, chunk_rows, &mut out, stride, threads, |chunk, slice| {
            for (local, row) in (chunk.start..chunk.end).enumerate() {
                for d in 0..stride {
                    slice[local * stride + d] = (row * stride + d) as f32;
                }
            }
        });
        out
    }

    #[test]
    fn serial_and_parallel_fan_out_write_identical_outputs() {
        let expected: Vec<f32> = (0..40).map(|v| v as f32).collect();
        assert_eq!(run_sum_kernel(10, 3, 1), expected);
        assert_eq!(run_sum_kernel(10, 3, 4), expected);
        assert_eq!(run_sum_kernel(10, 1, 8), expected);
        assert_eq!(run_sum_kernel(10, 100, 4), expected);
    }

    #[test]
    fn work_stealing_handles_ragged_and_oversubscribed_queues() {
        // Many ragged chunk shapes × more workers than jobs: every row is
        // still written exactly once and values are thread-count-invariant.
        let expected: Vec<f32> = (0..4 * 97).map(|v| v as f32).collect();
        for chunk_rows in [1, 3, 7, 96, 97, 1000] {
            for threads in [2, 3, 16, 64] {
                assert_eq!(
                    run_sum_kernel(97, chunk_rows, threads),
                    expected,
                    "chunk_rows={chunk_rows} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut out: Vec<f32> = Vec::new();
        for_each_chunk(0, 8, &mut out, 4, 4, |_, _| panic!("no chunks expected"));
    }

    #[test]
    fn task_fan_out_runs_every_job_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 2, 7, 64] {
            let hits: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
            for_each_task((0..23).collect::<Vec<usize>>(), threads, |job| {
                hits[job].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}: every job runs exactly once"
            );
        }
        for_each_task(Vec::<usize>::new(), 4, |_| panic!("no jobs expected"));
    }
}
