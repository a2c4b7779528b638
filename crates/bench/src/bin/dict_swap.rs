//! Live dictionary update baseline, written to `BENCH_dict.json`.
//!
//! Two questions the epoch-swap design hinges on:
//!
//! 1. **Crossover** — per batch size, is it cheaper to apply the staged
//!    ops through `DynamicMatcher` (§6 incremental path) or to rebuild
//!    the whole snapshot in parallel (§4)? The store's auto policy picks
//!    by staged-symbol ratio; this measures both paths forced, so the
//!    reported crossover validates (or indicts) the default threshold.
//! 2. **Swap latency under load** — how long does commit+publish take
//!    while sessions are streaming, and does a swap dent throughput?
//!    Publishing is a pointer swap, so the committed-to-visible latency
//!    should track the rebuild cost alone.
//!
//! Usage: `dict_swap [out.json] [--check baseline.json]` (default
//! `BENCH_dict.json`). `PDM_BENCH_SMOKE=1` shrinks the crossover sizes and
//! runs for CI smoke coverage; its batch sizes are a subset of the full
//! run's, so `--check` can compare them. `--check` fails (exit 1) when a
//! batch's incremental commit takes more than twice its baseline time, or
//! `swap_under_load.stream_mbps` falls below half its baseline — the same
//! 50% margin as the other bench guards, read as a rate.

use pdm_core::dict::{to_symbols, Sym};
use pdm_dict::{DictStore, SnapshotPath, StageOp};
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
/// committed patterns, forcing the given rebuild path. The store/stage
/// setup is rebuilt per run and kept off the clock.
fn commit_latency(ctx: &Ctx, runs: usize, base: usize, batch: usize, path: SnapshotPath) -> f64 {
    let mut samples = Vec::with_capacity(runs + 1);
    for _ in 0..=runs {
        let mut store = seeded(ctx, base);
        for j in 0..batch {
            store.stage_add(&pat("add", j)).unwrap();
        }
        let t0 = Instant::now();
        let out = store.commit_with(ctx, Some(path)).unwrap();
        samples.push(t0.elapsed());
        std::hint::black_box(out);
    }
    samples.remove(0); // warmup
    samples.sort_unstable();
    ms(samples[samples.len() / 2])
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
            eprintln!("check FAIL: batch {k} incremental {cur:.3} ms > 2x baseline {want:.3}");
            ok = false;
        } else {
            eprintln!("check ok:   batch {k} incremental {cur:.3} ms vs baseline {want:.3}");
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

    // --- 1. incremental apply vs full rebuild crossover -----------------
    let mut rows = Vec::new();
    let mut crossover: Option<usize> = None;
    for &k in &batches {
        let inc = commit_latency(&ctx, runs, base, k, SnapshotPath::Incremental);
        let full = commit_latency(&ctx, runs, base, k, SnapshotPath::FullRebuild);
        if crossover.is_none() && full <= inc {
            crossover = Some(k);
        }
        eprintln!("batch {k:>4}: incremental {inc:.3} ms, full rebuild {full:.3} ms");
        rows.push(format!(
            "    {{\"batch\": {k}, \"incremental_ms\": {inc:.3}, \"full_rebuild_ms\": {full:.3}}}"
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
         \"crossover\": {{\"rows\": [\n{}\n  ], \"full_beats_incremental_at_batch\": {}}},\n  \
         \"swap_under_load\": {{\"sessions\": {sessions}, \"text_syms_per_session\": {text_syms}, \
         \"commits\": {commits}, \"idle_commit_ms\": {idle_ms:.3}, \
         \"loaded_commit_ms\": {loaded_ms:.3}, \"stream_mbps\": {mbps:.2}, \
         \"epoch_adoptions\": {swaps}}}\n}}\n",
        rows.join(",\n"),
        crossover.map_or("null".into(), |k| k.to_string()),
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
