//! Live dictionary update baseline, written to `BENCH_dict.json`.
//!
//! Two questions the epoch-swap design hinges on:
//!
//! 1. **Commit latency** — per batch size, what does a steady-state commit
//!    cost? Every commit applies its staged ops through the store's
//!    `DynamicMatcher` (§6) and freezes it, patching the frozen copy it
//!    published two commits ago. Each timed commit follows the seed commit
//!    and two untimed ones that add and remove the same batch, so both
//!    frozen copies exist, no epoch holds the copy being patched, and each
//!    row records the route its tables took ([`FreezeRoute`]): the route a
//!    served commit takes between two commits of the same shape.
//! 2. **Swap latency under load** — how long does commit+publish take
//!    while sessions are streaming, and does a swap dent throughput?
//!    Publishing is a pointer swap, so the committed-to-visible latency
//!    should track the freeze cost alone.
//!
//! Usage: `dict_swap [out.json] [--check baseline.json]` (default
//! `BENCH_dict.json`). `PDM_BENCH_SMOKE=1` shrinks the dictionary, the
//! batch sizes and the runs for CI smoke coverage; its batch sizes are a
//! subset of the full run's, so `--check` can compare them. `--check`
//! fails (exit 1) when a batch's steady-state commit (its row's
//! `incremental_ms`) takes more than twice its baseline time, or
//! `swap_under_load.stream_mbps` falls below half its baseline — the same
//! 50% margin as the other bench guards, read as a rate.

use pdm_core::dict::{to_symbols, Sym};
use pdm_core::dynamic::FreezeRoute;
use pdm_dict::{DictStore, StageOp};
use pdm_pram::Ctx;
use pdm_stream::{DictAdmin, GlobalMetrics, ServiceConfig, ShardedService};
use pdm_textgen::{strings, Alphabet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var_os("PDM_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Deterministic unique patterns: `base000042`-style, so adds never
/// collide with the seed set or each other.
fn pat(prefix: &str, i: usize) -> Vec<Sym> {
    to_symbols(&format!("{prefix}{i:06}"))
}

/// Fresh store holding `base` committed patterns.
fn seeded(ctx: &Ctx, base: usize) -> DictStore {
    let mut store = DictStore::in_memory();
    for i in 0..base {
        store.stage_add(&pat("base", i)).unwrap();
    }
    store.commit(ctx).unwrap();
    store
}

/// Median commit latency for `batch` staged adds on top of `base`
/// committed patterns, and the costliest route the timed commits' tables
/// took. Before each timed commit, off the clock: the seed commit, one
/// that adds the batch and one that removes it again, none of them held.
/// The removal touched every table the timed re-add touches, so the copy
/// the re-add patches shares no array with another, and the re-add
/// restores the entry counts that copy was frozen at.
fn commit_latency(ctx: &Ctx, runs: usize, base: usize, batch: usize) -> (f64, FreezeRoute) {
    let mut samples = Vec::with_capacity(runs + 1);
    let mut route = FreezeRoute::InPlace;
    for _ in 0..=runs {
        let mut store = seeded(ctx, base);
        let pats: Vec<Vec<Sym>> = (0..batch).map(|j| pat("add", j)).collect();
        let add: Vec<StageOp> = pats.iter().map(|p| StageOp::Add(p)).collect();
        let remove: Vec<StageOp> = pats.iter().map(|p| StageOp::Remove(p)).collect();
        for (i, staged) in [&add, &remove, &add].into_iter().enumerate() {
            assert!(store.stage_batch(staged).iter().all(Result::is_ok));
            let t0 = Instant::now();
            let out = store.commit(ctx).unwrap();
            let took = t0.elapsed();
            if i == 2 {
                samples.push(took);
                route = route.max(out.tables.expect("a non-empty epoch froze"));
            }
        }
    }
    samples.remove(0); // warmup
    samples.sort_unstable();
    (ms(samples[samples.len() / 2]), route)
}

/// The number after `"key": ` in the first place `anchor` is followed by
/// `key` (the baselines are this binary's own fixed-format output).
fn field_after(json: &str, anchor: &str, key: &str) -> Option<f64> {
    let rest = &json[json.find(anchor)?..];
    let tag = format!("\"{key}\": ");
    let rest = &rest[rest.find(&tag)? + tag.len()..];
    let end = rest
        .find(|c: char| c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compare this run against a committed baseline (see module docs).
fn check(json: &str, base: &str, batches: &[usize]) -> bool {
    let mut ok = true;
    for &k in batches {
        let anchor = format!("{{\"batch\": {k}, ");
        let cur = field_after(json, &anchor, "incremental_ms").expect("this run has the row");
        let Some(want) = field_after(base, &anchor, "incremental_ms") else {
            eprintln!("check: batch {k} missing from baseline, skipping");
            continue;
        };
        if cur > want / 0.5 {
            eprintln!("check FAIL: batch {k} commit {cur:.3} ms > 2x baseline {want:.3}");
            ok = false;
        } else {
            eprintln!("check ok:   batch {k} commit {cur:.3} ms vs baseline {want:.3}");
        }
    }
    let cur = field_after(json, "swap_under_load", "stream_mbps").expect("this run has it");
    match field_after(base, "swap_under_load", "stream_mbps") {
        None => eprintln!("check: stream_mbps missing from baseline, skipping"),
        Some(want) if cur < want * 0.5 => {
            eprintln!("check FAIL: stream_mbps {cur:.2} < 50% of baseline {want:.2}");
            ok = false;
        }
        Some(want) => eprintln!("check ok:   stream_mbps {cur:.2} vs baseline {want:.2}"),
    }
    ok
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let mut out_path = String::from("BENCH_dict.json");
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--check" {
            check_path = args.next();
        } else {
            out_path = a;
        }
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let smoke = smoke();

    let (base, batches, runs) = if smoke {
        (64, vec![1usize, 4, 16], 1)
    } else {
        (512, vec![1usize, 4, 16, 64, 256], 5)
    };
    let ctx = Ctx::with_threads(host_cpus.min(4));

    // --- 1. steady-state commit latency per batch size -----------------
    let mut rows = Vec::new();
    for &k in &batches {
        let (inc, route) = commit_latency(&ctx, runs, base, k);
        eprintln!("batch {k:>4}: commit {inc:.3} ms, tables {route:?}");
        rows.push(format!(
            "    {{\"batch\": {k}, \"incremental_ms\": {inc:.3}, \"route\": \"{route:?}\"}}"
        ));
    }

    // --- 2. swap latency while sessions stream --------------------------
    // Full size in smoke runs too (well under a second), so `--check`
    // compares like with like.
    let (sessions, text_syms, chunk, commits) = (4, 512usize << 10, 64 << 10, 8);

    let metrics = GlobalMetrics::default();
    // Idle reference: commit+publish with no traffic.
    let admin = DictAdmin::new(seeded(&ctx, base), ctx.exec.clone()).unwrap();
    let idle: Vec<f64> = (0..commits)
        .map(|c| {
            admin.stage(&[StageOp::Add(&pat("idle", c))])[0]
                .as_ref()
                .unwrap();
            let t0 = Instant::now();
            admin.commit(&metrics).unwrap();
            ms(t0.elapsed())
        })
        .collect();
    let idle_ms = median_ms(idle);

    let admin = DictAdmin::new(seeded(&ctx, base), ctx.exec.clone()).unwrap();
    let svc = ShardedService::start_versioned(
        admin.handle(),
        ServiceConfig {
            workers: 2,
            queue_cap: 8,
            ..ServiceConfig::default()
        },
    );
    let mut r = strings::rng(7);
    let text = strings::random_text(&mut r, Alphabet::Bytes, text_syms);

    let t_load = Instant::now();
    let loaded: Vec<f64> = std::thread::scope(|s| {
        for _ in 0..sessions {
            let sess = svc.open();
            let text = &text;
            s.spawn(move || {
                for c in text.chunks(chunk) {
                    sess.push(c.to_vec()).unwrap();
                }
                std::hint::black_box(sess.close());
            });
        }
        (0..commits)
            .map(|c| {
                admin.stage(&[StageOp::Add(&pat("load", c))])[0]
                    .as_ref()
                    .unwrap();
                let t0 = Instant::now();
                admin.commit(&metrics).unwrap();
                let d = ms(t0.elapsed());
                std::thread::sleep(Duration::from_millis(2));
                d
            })
            .collect()
    });
    let wall = t_load.elapsed();
    let loaded_ms = median_ms(loaded);
    let mbps = (sessions * text_syms) as f64 / (1 << 20) as f64 / wall.as_secs_f64();
    let swaps = svc.metrics().epoch_adoptions;
    svc.shutdown();
    eprintln!(
        "swap latency: idle {idle_ms:.3} ms, under load {loaded_ms:.3} ms \
         ({sessions} sessions, {mbps:.2} MB/s, {swaps} adoptions)"
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"meta\": {{\"host_cpus\": {host_cpus}, \"smoke\": {smoke}, \
         \"base_patterns\": {base}, \"runs\": {runs}}},\n  \
         \"commit\": {{\"rows\": [\n{}\n  ]}},\n  \
         \"swap_under_load\": {{\"sessions\": {sessions}, \"text_syms_per_session\": {text_syms}, \
         \"commits\": {commits}, \"idle_commit_ms\": {idle_ms:.3}, \
         \"loaded_commit_ms\": {loaded_ms:.3}, \"stream_mbps\": {mbps:.2}, \
         \"epoch_adoptions\": {swaps}}}\n}}\n",
        rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write dict json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    if let Some(base_path) = check_path {
        let base = std::fs::read_to_string(&base_path)
            .unwrap_or_else(|e| panic!("read baseline {base_path}: {e}"));
        if !check(&json, &base, &batches) {
            std::process::exit(1);
        }
    }
}
