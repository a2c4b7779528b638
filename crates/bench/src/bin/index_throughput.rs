//! Offline-indexing workload, written to `BENCH_index.json`.
//!
//! Three questions, one corpus (the genome-shaped generator from
//! `pdm_textgen::corpus` — small σ, long repeats, the shape suffix arrays
//! are built for):
//!
//! * **build** — suffix-array + LCP construction MB/s, sequential and at
//!   pool widths 1 / 2 / max (sequential SA-IS in `pdm_index::sa`; the
//!   pool width reaches only the blocked Φ-array LCP pass in
//!   `pdm_index::lcp`);
//! * **query** — batch throughput in kilo-patterns/s for a prefix-sharing
//!   batch, with interval merging on and off, same widths;
//! * **crossover** — against the streaming baseline (`pdm_baselines`
//!   chunked Aho–Corasick, which re-scans the whole corpus per batch): how
//!   many batches until the one-off index build has paid for itself —
//!   `build_ms / (ac_batch_ms − index_batch_ms)`.
//!
//! Usage: `index_throughput [out.json] [--check baseline.json]`
//!
//! `PDM_BENCH_SMOKE=1` keeps the corpus size (so the numbers stay
//! comparable with a committed full run) but takes a single sample.
//! `--check` compares build seq MB/s and merged-query seq kqps against a
//! committed baseline with the same 30 % margin as `text_throughput`.

use pdm_baselines::{chunked_ac, AhoCorasick};
use pdm_bench::timing::time_median;
use pdm_index::{BatchOptions, CorpusIndex, QueryMode};
use pdm_pram::Ctx;
use pdm_textgen::{corpus, strings};
use std::fmt::Write as _;

const RUNS_FULL: usize = 3;
const CORPUS_SYMS: usize = 1 << 22;
const BATCH: usize = 8192;
const AC_CHUNK: usize = 64 << 10;

fn smoke() -> bool {
    std::env::var_os("PDM_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

fn widths() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut v = vec![1, 2];
    if !v.contains(&max) {
        v.push(max);
    }
    v
}

fn mbps(bytes: usize, d: std::time::Duration) -> f64 {
    bytes as f64 / (1 << 20) as f64 / d.as_secs_f64()
}

fn kqps(patterns: usize, d: std::time::Duration) -> f64 {
    patterns as f64 / 1e3 / d.as_secs_f64()
}

/// `{"1": 12.3, ...}` with widths as keys.
fn json_map(entries: &[(usize, f64)]) -> String {
    let mut s = String::from("{");
    for (i, (w, v)) in entries.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{w}\": {v:.2}");
    }
    s.push('}');
    s
}

/// Pull `"<section>" … "<key>": <float>` out of a baseline JSON produced by
/// this binary (hand-rolled to match the hand-rolled writer).
fn extract(json: &str, section: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{section}\""))?;
    let rest = &json[at..];
    let rest = &rest[rest.find(&format!("\"{key}\": "))? + format!("\"{key}\": ").len()..];
    let end = rest
        .find(|c: char| c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let mut out_path = String::from("BENCH_index.json");
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
    let runs = if smoke() { 1 } else { RUNS_FULL };

    let mut r = strings::rng(42);
    let text = corpus::genome_default(&mut r, CORPUS_SYMS);
    let pats = corpus::distinct_query_patterns(&mut r, &text, BATCH, 8, 32, 8);
    let pattern_bytes: usize = pats.iter().map(Vec::len).sum();

    // -- build ------------------------------------------------------------
    let build_seq = time_median(runs, || {
        std::hint::black_box(CorpusIndex::build(&Ctx::seq(), text.clone()));
    });
    let build_par: Vec<(usize, f64)> = widths()
        .into_iter()
        .map(|w| {
            let ctx = Ctx::with_threads(w);
            let d = time_median(runs, || {
                std::hint::black_box(CorpusIndex::build(&ctx, text.clone()));
            });
            (w, mbps(CORPUS_SYMS, d))
        })
        .collect();
    let build_seq_mbps = mbps(CORPUS_SYMS, build_seq);
    eprintln!("build: seq {build_seq_mbps:.2} MB/s, par {build_par:?}");

    // -- query ------------------------------------------------------------
    let idx = CorpusIndex::build(&Ctx::par(), text.clone());
    // (leg, seq kqps, (width, kqps) per pool width)
    type QueryLeg = (&'static str, f64, Vec<(usize, f64)>);
    let mut query_legs: Vec<QueryLeg> = Vec::new();
    for merge in [true, false] {
        let opts = BatchOptions {
            merge,
            mode: QueryMode::Count,
        };
        let seq = kqps(
            BATCH,
            time_median(runs, || {
                std::hint::black_box(idx.query_batch(&Ctx::seq(), &pats, &opts));
            }),
        );
        let par: Vec<(usize, f64)> = widths()
            .into_iter()
            .map(|w| {
                let ctx = Ctx::with_threads(w);
                let d = time_median(runs, || {
                    std::hint::black_box(idx.query_batch(&ctx, &pats, &opts));
                });
                (w, kqps(BATCH, d))
            })
            .collect();
        let leg = if merge { "merge" } else { "no_merge" };
        eprintln!("query/{leg}: seq {seq:.2} kqps, par {par:?}");
        query_legs.push((leg, seq, par));
    }

    // -- crossover vs streaming AC ----------------------------------------
    // One AC batch = re-scan the whole corpus; one index batch = the merged
    // parallel query. Build cost amortizes over the difference.
    let ac = AhoCorasick::new(&pats);
    let maxlen = pats.iter().map(Vec::len).max().unwrap_or(1);
    let ac_batch = time_median(runs, || {
        std::hint::black_box(chunked_ac::find_all_chunked(&ac, &text, maxlen, AC_CHUNK));
    });
    let opts = BatchOptions {
        merge: true,
        mode: QueryMode::Count,
    };
    let ctx_max = Ctx::par();
    let idx_batch = time_median(runs, || {
        std::hint::black_box(idx.query_batch(&ctx_max, &pats, &opts));
    });
    let build_max = time_median(runs, || {
        std::hint::black_box(CorpusIndex::build(&ctx_max, text.clone()));
    });
    let ac_ms = ac_batch.as_secs_f64() * 1e3;
    let idx_ms = idx_batch.as_secs_f64() * 1e3;
    let build_ms = build_max.as_secs_f64() * 1e3;
    let batches_to_amortize = if ac_ms > idx_ms {
        build_ms / (ac_ms - idx_ms)
    } else {
        f64::INFINITY
    };
    eprintln!(
        "crossover: AC batch {ac_ms:.1} ms, index batch {idx_ms:.1} ms, \
         build {build_ms:.1} ms → {batches_to_amortize:.1} batches to amortize"
    );

    let query_sections: Vec<String> = query_legs
        .iter()
        .map(|(leg, seq, par)| {
            format!(
                "\"{leg}\": {{\"seq_kqps\": {seq:.2}, \"par_kqps\": {}}}",
                json_map(par)
            )
        })
        .collect();
    let cross = if batches_to_amortize.is_finite() {
        format!("{batches_to_amortize:.1}")
    } else {
        "null".into()
    };
    let json = format!(
        "{{\n  \"meta\": {{\"host_cpus\": {host_cpus}, \"corpus_syms\": {CORPUS_SYMS}, \
         \"batch_patterns\": {BATCH}, \"pattern_bytes\": {pattern_bytes}, \"runs\": {runs}, \
         \"smoke\": {}, \"note\": \"genome corpus; crossover = batches of {BATCH} \
         prefix-sharing patterns until index build beats per-batch AC rescans\"}},\n  \
         \"build\": {{\"seq_mbps\": {build_seq_mbps:.2}, \"par_mbps\": {}}},\n  \
         \"query\": {{{}}},\n  \
         \"crossover\": {{\"ac_batch_ms\": {ac_ms:.2}, \"index_batch_ms\": {idx_ms:.2}, \
         \"build_ms\": {build_ms:.2}, \"batches_to_amortize\": {cross}}}\n}}\n",
        smoke(),
        json_map(&build_par),
        query_sections.join(", "),
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    if let Some(base_path) = check_path {
        let base = std::fs::read_to_string(&base_path)
            .unwrap_or_else(|e| panic!("read baseline {base_path}: {e}"));
        let merged_seq = query_legs
            .iter()
            .find(|(l, _, _)| *l == "merge")
            .map(|(_, s, _)| *s)
            .expect("merge leg always measured");
        let mut failed = false;
        for (name, cur, want) in [
            (
                "build seq_mbps",
                build_seq_mbps,
                extract(&base, "build", "seq_mbps"),
            ),
            (
                "query/merge seq_kqps",
                merged_seq,
                extract(&base, "query", "seq_kqps"),
            ),
        ] {
            let Some(want) = want else {
                eprintln!("check: {name} missing from baseline, skipping");
                continue;
            };
            let floor = want * 0.70;
            if cur < floor {
                eprintln!("check FAIL: {name} {cur:.2} < 70% of baseline {want:.2}");
                failed = true;
            } else {
                eprintln!("check ok:   {name} {cur:.2} vs baseline {want:.2}");
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
