//! Cold-start cost of a built-matcher snapshot, written to
//! `BENCH_snap.json`.
//!
//! The question the v2 sidecar exists to answer: at what dictionary size
//! does loading the serialized frozen tables beat re-running the parallel
//! KMR build? Per pattern count this measures
//!
//! * **build** — `Snapshot::build_static` from the raw pattern list (the
//!   fallback path every boot pays without a sidecar);
//! * **encode** — `to_sidecar_bytes`, the one-time compaction cost;
//! * **load** — `Snapshot::from_bytes` on the v2 bytes (the cold-boot
//!   path: pure decode, zero naming rounds), plus decode MB/s.
//!
//! `speedup = build_ms / load_ms`; the README claims this exceeds 1 well
//! before 100k patterns.
//!
//! Usage: `snap_coldstart [out.json] [--check baseline.json]` (default
//! `BENCH_snap.json`). `--check` compares this run's decode MB/s (a rate,
//! so comparable across sizes) against the baseline's first row and exits
//! non-zero on a loss of more than 30%. `PDM_BENCH_SMOKE=1` shrinks sizes
//! and runs for CI smoke coverage.

use pdm_core::dict::{to_symbols, Sym};
use pdm_dict::Snapshot;
use pdm_pram::Ctx;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var_os("PDM_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Deterministic unique patterns, `p0000042`-style (8 symbols each).
fn patterns(n: usize) -> Vec<Vec<Sym>> {
    (0..n).map(|i| to_symbols(&format!("p{i:07}"))).collect()
}

/// First `"key": <number>` occurrence in a bench JSON (same minimal
/// parsing as the other bench binaries — the files are written by us).
fn extract(json: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let rest = &json[json.find(&tag)? + tag.len()..];
    let end = rest
        .find(|c: char| c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let mut out_path = String::from("BENCH_snap.json");
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

    let (sizes, load_runs): (Vec<usize>, usize) = if smoke {
        (vec![1_000, 4_000], 3)
    } else {
        (vec![10_000, 100_000, 1_000_000], 5)
    };
    let ctx = Ctx::with_threads(host_cpus.min(4));

    let mut rows = Vec::new();
    for &n in &sizes {
        let pats = patterns(n);

        let t0 = Instant::now();
        let built = Snapshot::build_static(&ctx, 1, pats.clone()).unwrap();
        let build_ms = ms(t0.elapsed());

        let t0 = Instant::now();
        let bytes = built
            .to_sidecar_bytes()
            .expect("static snapshot serializes");
        let encode_ms = ms(t0.elapsed());

        let loads: Vec<f64> = (0..=load_runs)
            .map(|_| {
                let t0 = Instant::now();
                let snap = Snapshot::from_bytes(&ctx, &bytes).unwrap();
                let d = ms(t0.elapsed());
                assert!(
                    snap.matcher().is_some_and(|m| m.cold_loaded()),
                    "load must not rebuild"
                );
                assert_eq!(snap.pattern_count(), n);
                std::hint::black_box(snap);
                d
            })
            .skip(1) // warmup
            .collect();
        let load_ms = median_ms(loads);
        let mb = bytes.len() as f64 / (1 << 20) as f64;
        let load_mbps = mb / (load_ms / 1e3);
        let speedup = build_ms / load_ms;

        eprintln!(
            "{n:>8} patterns: build {build_ms:>9.2} ms, encode {encode_ms:>8.2} ms, \
             load {load_ms:>8.2} ms ({mb:.1} MiB, {load_mbps:.0} MB/s, {speedup:.1}x vs rebuild)"
        );
        rows.push(format!(
            "    {{\"patterns\": {n}, \"build_ms\": {build_ms:.3}, \"encode_ms\": {encode_ms:.3}, \
             \"sidecar_bytes\": {}, \"load_ms\": {load_ms:.3}, \"load_mbps\": {load_mbps:.1}, \
             \"speedup_vs_rebuild\": {speedup:.2}}}",
            bytes.len()
        ));
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"meta\": {{\"host_cpus\": {host_cpus}, \"smoke\": {smoke}, \
         \"load_runs\": {load_runs}}},\n  \
         \"cold_start\": {{\"rows\": [\n{}\n  ]}}\n}}\n",
        rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write snap json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    if let Some(base_path) = check_path {
        let base = std::fs::read_to_string(&base_path)
            .unwrap_or_else(|e| panic!("read baseline {base_path}: {e}"));
        let cur = extract(&json, "load_mbps").expect("this run has load_mbps");
        let Some(want) = extract(&base, "load_mbps") else {
            eprintln!("check: load_mbps missing from baseline, skipping");
            return;
        };
        let floor = want * 0.70;
        if cur < floor {
            eprintln!("check FAIL: load_mbps {cur:.1} < 70% of baseline {want:.1}");
            std::process::exit(1);
        }
        eprintln!("check ok:   load_mbps {cur:.1} vs baseline {want:.1}");
    }
}
