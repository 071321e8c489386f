//! Micro-benchmark of the paper's motivation (Section 2 / Figure 2): the PDQ
//! executor (in-queue synchronization) against in-handler spin locks and
//! static multi-queue partitioning, on a contended fetch&add-style workload,
//! plus the sharded PDQ executor that removes the single queue mutex.
//!
//! Every executor is built through the `build_executor` registry and driven
//! through the `Executor` trait, so a newly registered executor is measured
//! here without touching this bench.
//!
//! Two worker counts are measured: the paper-scale 4-worker configuration and
//! a 16-worker configuration where the single shared queue of the plain PDQ
//! executor becomes the bottleneck and sharding pays off.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdq_bench::{drive_fetch_add, scaling_spec};
use pdq_core::executor::{build_executor, Executor, ExecutorExt, SubmitBatch, EXECUTOR_NAMES};
use pdq_core::SyncKey;

const JOBS: u64 = 4_000;
/// Number of distinct memory words (keys); small => high contention.
const HOT_WORDS: u64 = 8;

/// Same-key serialization (or the per-word lock, for the spin-lock baseline)
/// makes the plain read-modify-write inside [`drive_fetch_add`] safe; the
/// driver is shared with the `executor_scaling` experiment so the bench and
/// the experiment measure the same workload.
fn fetch_add_workload(executor: &dyn Executor, words: &[Arc<AtomicU64>]) {
    drive_fetch_add(executor, JOBS, words);
}

fn words(n: u64) -> Vec<Arc<AtomicU64>> {
    (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect()
}

fn bench_workers(c: &mut Criterion, group_name: &str, workers: usize, hot_words: u64) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);

    for name in EXECUTOR_NAMES {
        group.bench_function(BenchmarkId::new(name, workers), |b| {
            b.iter_batched(
                || {
                    (
                        build_executor(name, &scaling_spec(name, workers))
                            .expect("registry names build"),
                        words(hot_words),
                    )
                },
                |(executor, words)| fetch_add_workload(&*executor, &words),
                criterion::BatchSize::LargeInput,
            )
        });
    }

    group.finish();
}

/// One submission per dispatch-lock acquisition: the baseline the batch path
/// amortizes.
fn drive_single_submit(executor: &dyn Executor, jobs: u64, keys: u64) {
    for i in 0..jobs {
        executor
            .submit(SyncKey::key(i % keys), Box::new(|| {}))
            .expect("executor is running");
    }
    executor.flush();
}

/// `batch_size` submissions per dispatch-lock acquisition (one shard pass on
/// the partitioned executors).
fn drive_batched_submit(executor: &dyn Executor, jobs: u64, keys: u64, batch_size: usize) {
    let mut batch = SubmitBatch::with_capacity(batch_size);
    for i in 0..jobs {
        batch.push_keyed(i % keys, || {});
        if batch.len() >= batch_size {
            executor
                .submit_batch(&mut batch)
                .expect("executor is running");
        }
    }
    executor
        .submit_batch(&mut batch)
        .expect("executor is running");
    executor.flush();
}

/// Quantifies the per-job submission overhead `try_submit_batch` removes:
/// the same trivial-handler workload (submission cost dominates) is pushed
/// through each executor one job at a time and in 64-job batches, on the
/// contended 4-worker / 8-key configuration of the motivation experiment.
fn bench_submit_batch(c: &mut Criterion) {
    const BATCH: usize = 64;
    let mut group = c.benchmark_group("submit_batch");
    group.sample_size(10);
    for name in EXECUTOR_NAMES {
        for (mode, batched) in [("single", false), ("batch64", true)] {
            group.bench_function(BenchmarkId::new(name, mode), |b| {
                b.iter_batched(
                    || build_executor(name, &scaling_spec(name, 4)).expect("registry names build"),
                    |executor| {
                        if batched {
                            drive_batched_submit(&*executor, JOBS, HOT_WORDS, BATCH);
                        } else {
                            drive_single_submit(&*executor, JOBS, HOT_WORDS);
                        }
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

/// Drives the contended dispatch workload with the exact instrumentation the
/// observed server puts on its hot path: one relaxed counter increment per
/// submission and one timestamped histogram record per completed job.
fn drive_instrumented_submit(
    executor: &dyn Executor,
    jobs: u64,
    keys: u64,
    submits: &pdq_metrics::Counter,
    latency: &pdq_metrics::Histogram,
) {
    for i in 0..jobs {
        submits.inc();
        let stamp = Instant::now();
        let latency = latency.clone();
        executor
            .submit(
                SyncKey::key(i % keys),
                Box::new(move || {
                    latency.record(stamp.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                }),
            )
            .expect("executor is running");
    }
    executor.flush();
}

/// Cost of live observability on the dispatch hot path: the same contended
/// single-submit workload as `submit_batch/single`, bare vs carrying the
/// per-submission counter increment and per-job latency histogram record the
/// instrumented server performs. Both sides pay the same dispatch and
/// same-key serialization cost, so the delta is purely the relaxed-atomic
/// bookkeeping. On a single-CPU host the absolute numbers time-slice one
/// core, but the *relative* overhead is still what the target (<1%) bounds,
/// since instrumentation adds per-job work, not parallelism.
fn bench_metrics_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_overhead");
    group.sample_size(10);
    for name in EXECUTOR_NAMES {
        for (mode, instrumented) in [("bare", false), ("observed", true)] {
            group.bench_function(BenchmarkId::new(name, mode), |b| {
                b.iter_batched(
                    || {
                        let registry = pdq_metrics::Registry::new();
                        (
                            build_executor(name, &scaling_spec(name, 4))
                                .expect("registry names build"),
                            registry.counter("bench_submits_total"),
                            registry.histogram("bench_job_latency_ns"),
                        )
                    },
                    |(executor, submits, latency)| {
                        if instrumented {
                            drive_instrumented_submit(
                                &*executor, JOBS, HOT_WORDS, &submits, &latency,
                            );
                        } else {
                            drive_single_submit(&*executor, JOBS, HOT_WORDS);
                        }
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

fn bench_executors(c: &mut Criterion) {
    bench_workers(c, "fetch_add_4k_jobs", 4, HOT_WORDS);
    // 16 workers over 64 words: enough key parallelism that the queue
    // itself, not the keys, is the point of contention.
    bench_workers(c, "fetch_add_4k_jobs_16_workers", 16, 64);
    bench_submit_batch(c);
    bench_metrics_overhead(c);
}

criterion_group!(benches, bench_executors);
criterion_main!(benches);
