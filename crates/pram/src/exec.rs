//! Execution policy and data-parallel helpers.
//!
//! Every parallel loop in the workspace is expressed through [`Ctx`] so that
//! (a) the same algorithm code runs sequentially or on any number of threads,
//! and (b) each loop charges the PRAM cost model exactly once per round.
//!
//! The helpers intentionally mirror what an arbitrary-CRCW PRAM step is: a
//! synchronous `for i in 0..n` with independent iterations. Anything fancier
//! (scans, sorts) lives in `pdm-primitives` and is built from these.

use crate::cost::CostModel;
use std::sync::Arc;

/// How to run parallel rounds.
#[derive(Clone)]
pub enum ExecPolicy {
    /// Plain sequential loops. Deterministic; useful for tests and as the
    /// 1-processor reference point in speedup experiments.
    Seq,
    /// The global persistent worker pool (width from `PDM_THREADS`, then
    /// `RAYON_NUM_THREADS`, then the hardware parallelism).
    Par,
    /// A dedicated persistent pool, for thread-count sweeps. Workers spawn
    /// lazily on the first round and park between rounds (DESIGN.md §8).
    Pool(Arc<rayon::ThreadPool>),
}

impl std::fmt::Debug for ExecPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecPolicy::Seq => write!(f, "Seq"),
            ExecPolicy::Par => write!(f, "Par(global)"),
            ExecPolicy::Pool(p) => write!(f, "Pool({} threads)", p.current_num_threads()),
        }
    }
}

impl ExecPolicy {
    /// A dedicated pool with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        if threads <= 1 {
            return ExecPolicy::Seq;
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build rayon pool");
        ExecPolicy::Pool(Arc::new(pool))
    }

    /// Number of worker threads this policy will use.
    pub fn threads(&self) -> usize {
        match self {
            ExecPolicy::Seq => 1,
            ExecPolicy::Par => rayon::current_num_threads(),
            ExecPolicy::Pool(p) => p.current_num_threads(),
        }
    }

    #[inline]
    fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        match self {
            ExecPolicy::Seq => f(),
            ExecPolicy::Par => f(),
            ExecPolicy::Pool(p) => p.install(f),
        }
    }
}

/// Execution context threaded through every algorithm: policy + cost model.
#[derive(Clone)]
pub struct Ctx {
    pub exec: ExecPolicy,
    pub cost: Arc<CostModel>,
}

impl Default for Ctx {
    fn default() -> Self {
        Self::seq()
    }
}

/// Minimum items per pool chunk. Rounds of at most this many items run
/// inline on the caller instead of dispatching to the pool, and larger
/// rounds are dealt in chunks of at least this many items.
///
/// Even a parked persistent pool costs a wake/park handshake per round;
/// for small rounds that overhead exceeds the loop body (BENCH_pool.json:
/// equal_len at width 1 ran *slower* through the pool than sequentially).
pub const MIN_CHUNK: usize = 1024;

impl Ctx {
    /// Sequential context with a fresh cost model.
    pub fn seq() -> Self {
        Ctx {
            exec: ExecPolicy::Seq,
            cost: Arc::new(CostModel::new()),
        }
    }

    /// Parallel context (global rayon pool) with a fresh cost model.
    pub fn par() -> Self {
        Ctx {
            exec: ExecPolicy::Par,
            cost: Arc::new(CostModel::new()),
        }
    }

    /// Context with a dedicated `threads`-worker pool.
    pub fn with_threads(threads: usize) -> Self {
        Ctx {
            exec: ExecPolicy::with_threads(threads),
            cost: Arc::new(CostModel::new()),
        }
    }

    /// One PRAM round: `f(i)` for every `i in 0..n`, independent iterations.
    /// Charges 1 round / `n` work.
    pub fn for_each<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync + Send,
    {
        self.cost.round(n as u64);
        if !self.dispatch(n) {
            for i in 0..n {
                f(i);
            }
        } else {
            self.exec.install(|| {
                use rayon::prelude::*;
                (0..n).into_par_iter().with_min_len(MIN_CHUNK).for_each(f);
            })
        }
    }

    /// One PRAM round over `n` host-side items that performs `ops` PRAM
    /// operations in total (used when one host iteration covers several
    /// virtual processors, e.g. a per-pattern loop touching all its blocks).
    /// Charges 1 round / `ops` work. The small-round fallback keys on `ops`
    /// (the real work), not the host-side item count.
    pub fn for_each_ops<F>(&self, n: usize, ops: u64, f: F)
    where
        F: Fn(usize) + Sync + Send,
    {
        self.cost.round(ops);
        if !self.dispatch(usize::try_from(ops).unwrap_or(usize::MAX)) {
            for i in 0..n {
                f(i);
            }
        } else {
            self.exec.install(|| {
                use rayon::prelude::*;
                (0..n).into_par_iter().for_each(f);
            })
        }
    }

    /// One PRAM round over a handful of coarse jobs that together perform
    /// `ops` PRAM operations: `f(i, &mut jobs[i])`. The `&mut` counterpart
    /// of [`Self::for_each_ops`] — the dispatch decision keys on `ops` (the
    /// real work), not the host-side job count, so a round of 2–8 chunk
    /// jobs each covering megabytes still reaches the pool. Charges 1 round
    /// / `ops` work.
    pub fn for_each_mut_ops<T, F>(&self, jobs: &mut [T], ops: u64, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync + Send,
    {
        self.cost.round(ops);
        if !self.dispatch(usize::try_from(ops).unwrap_or(usize::MAX)) {
            for (i, v) in jobs.iter_mut().enumerate() {
                f(i, v);
            }
        } else {
            self.exec.install(|| {
                use rayon::prelude::*;
                jobs.par_iter_mut().enumerate().for_each(|(i, v)| f(i, v));
            })
        }
    }

    /// One PRAM round producing a vector: `out[i] = f(i)`.
    /// Charges 1 round / `n` work.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync + Send,
    {
        self.cost.round(n as u64);
        if !self.dispatch(n) {
            (0..n).map(f).collect()
        } else {
            self.exec.install(|| {
                use rayon::prelude::*;
                (0..n)
                    .into_par_iter()
                    .with_min_len(MIN_CHUNK)
                    .map(f)
                    .collect()
            })
        }
    }

    /// One PRAM round updating a slice in place: `out[i] = f(i, out[i])`-style
    /// via `&mut` access. Charges 1 round / `len` work.
    pub fn for_each_mut<T, F>(&self, out: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync + Send,
    {
        self.cost.round(out.len() as u64);
        if !self.dispatch(out.len()) {
            for (i, v) in out.iter_mut().enumerate() {
                f(i, v);
            }
        } else {
            self.exec.install(|| {
                use rayon::prelude::*;
                out.par_iter_mut()
                    .with_min_len(MIN_CHUNK)
                    .enumerate()
                    .for_each(|(i, v)| f(i, v));
            })
        }
    }

    /// Parallel reduction in `O(log n)` PRAM rounds / `O(n)` work.
    pub fn reduce<T, F, G>(&self, n: usize, identity: T, eval: F, combine: G) -> T
    where
        T: Send + Sync + Clone,
        F: Fn(usize) -> T + Sync + Send,
        G: Fn(T, T) -> T + Sync + Send,
    {
        self.cost
            .rounds(crate::ceil_log2(n.max(1)) as u64 + 1, n as u64);
        if !self.dispatch(n) {
            (0..n).map(eval).fold(identity, combine)
        } else {
            self.exec.install(|| {
                use rayon::prelude::*;
                (0..n)
                    .into_par_iter()
                    .with_min_len(MIN_CHUNK)
                    .map(eval)
                    .reduce(|| identity.clone(), combine)
            })
        }
    }

    /// Run `f` inside this context's thread pool (for callers that need raw
    /// rayon iterators). Charges nothing; callers charge the model themselves.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        self.exec.install(f)
    }

    /// Whether rounds actually execute in parallel.
    pub fn is_parallel(&self) -> bool {
        !matches!(self.exec, ExecPolicy::Seq)
    }

    /// Whether a round of `n` items should be handed to the pool at all:
    /// false for sequential policies and for rounds of at most
    /// [`MIN_CHUNK`] items (the small-round inline fallback).
    #[inline]
    fn dispatch(&self, n: usize) -> bool {
        self.is_parallel() && n > MIN_CHUNK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn ctxs() -> Vec<Ctx> {
        vec![Ctx::seq(), Ctx::par(), Ctx::with_threads(3)]
    }

    #[test]
    fn for_each_touches_every_index() {
        for ctx in ctxs() {
            let hits: Vec<AtomicU64> = (0..5000).map(|_| AtomicU64::new(0)).collect();
            ctx.for_each(5000, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn map_matches_sequential() {
        for ctx in ctxs() {
            let v = ctx.map(4000, |i| i * i);
            assert_eq!(v.len(), 4000);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i * i));
        }
    }

    #[test]
    fn for_each_mut_updates_in_place() {
        for ctx in ctxs() {
            let mut v = vec![0usize; 3000];
            ctx.for_each_mut(&mut v, |i, x| *x = i + 1);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
        }
    }

    #[test]
    fn reduce_sums() {
        for ctx in ctxs() {
            let s = ctx.reduce(10_000, 0u64, |i| i as u64, |a, b| a + b);
            assert_eq!(s, 10_000 * 9_999 / 2);
        }
    }

    #[test]
    fn costs_charged_per_round() {
        let ctx = Ctx::seq();
        ctx.for_each(100, |_| {});
        ctx.map(50, |i| i);
        let s = ctx.cost.snapshot();
        assert_eq!(s.rounds, 2);
        assert_eq!(s.work, 150);
    }

    #[test]
    fn with_threads_one_is_seq() {
        assert!(matches!(ExecPolicy::with_threads(1), ExecPolicy::Seq));
        assert_eq!(ExecPolicy::with_threads(4).threads(), 4);
    }

    #[test]
    fn for_each_ops_charges_op_count() {
        let ctx = Ctx::seq();
        ctx.for_each_ops(4, 1000, |_| {});
        let s = ctx.cost.snapshot();
        assert_eq!(s.rounds, 1);
        assert_eq!(s.work, 1000);
    }

    #[test]
    fn for_each_ops_runs_every_item_in_parallel() {
        for ctx in ctxs() {
            let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            ctx.for_each_ops(100, 5000, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn for_each_mut_ops_updates_every_job() {
        for ctx in ctxs() {
            let mut jobs = vec![0u64; 4];
            ctx.for_each_mut_ops(&mut jobs, 5000, |i, v| *v = i as u64 + 1);
            assert_eq!(jobs, vec![1, 2, 3, 4]);
        }
        let ctx = Ctx::seq();
        let before = ctx.cost.snapshot();
        ctx.for_each_mut_ops(&mut [0u8; 2], 999, |_, _| {});
        let s = ctx.cost.snapshot().since(before);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.work, 999);
    }

    #[test]
    fn pool_policy_reports_thread_count() {
        let ctx = Ctx::with_threads(3);
        assert_eq!(ctx.exec.threads(), 3);
        assert!(ctx.is_parallel());
        assert!(!Ctx::seq().is_parallel());
        // Debug formatting names the variant.
        assert!(format!("{:?}", ctx.exec).contains("3"));
        assert_eq!(format!("{:?}", ExecPolicy::Seq), "Seq");
    }

    #[test]
    fn small_rounds_run_inline_on_caller() {
        let ctx = Ctx::with_threads(2);
        let caller = std::thread::current().id();
        let mut tids = vec![None; 8];
        ctx.for_each_mut(&mut tids, |_, t| *t = Some(std::thread::current().id()));
        assert!(
            tids.iter().all(|t| *t == Some(caller)),
            "sub-threshold round must not dispatch to the pool"
        );
    }

    #[test]
    fn install_runs_inside_pool() {
        let ctx = Ctx::with_threads(2);
        let n = ctx.install(rayon::current_num_threads);
        assert_eq!(n, 2);
    }

    #[test]
    fn empty_rounds_are_fine() {
        for ctx in ctxs() {
            ctx.for_each(0, |_| panic!("must not run"));
            let v: Vec<u8> = ctx.map(0, |_| panic!("must not run"));
            assert!(v.is_empty());
        }
    }
}
