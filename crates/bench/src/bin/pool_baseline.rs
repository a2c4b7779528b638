//! Persistent-pool throughput baseline, written to `BENCH_pool.json`.
//!
//! Records Seq vs pool MB/s at widths 1 / 2 / max for the three
//! round-heavy workloads (static §4 matching, equal-length Theorem 11,
//! chunked streaming), plus a round-dispatch microbenchmark comparing the
//! persistent pool against spawning scoped threads per round (what the
//! seed's executor did). The JSON carries `host_cpus` so readers can
//! judge the parallel numbers: on a single-CPU host the pool cannot beat
//! sequential on throughput, only on dispatch overhead.
//!
//! Usage: `pool_baseline [out.json]` (default `BENCH_pool.json`).

use pdm_bench::timing::time_median;
use pdm_core::equal_len::EqualLenMatcher;
use pdm_core::static1d::StaticMatcher;
use pdm_pram::Ctx;
use pdm_stream::StreamMatcher;
use pdm_textgen::{strings, Alphabet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const TEXT_SYMS: usize = 1 << 20;
const CHUNK: usize = 64 << 10;
const RUNS: usize = 5;

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

/// Rounds/sec dispatching `rounds` tiny parallel rounds one way or the other.
fn rounds_per_sec(rounds: usize, run_round: impl Fn(&[u64])) -> f64 {
    let data = vec![1u64; 4096];
    let t0 = Instant::now();
    for _ in 0..rounds {
        run_round(&data);
    }
    rounds as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pool.json".into());
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut r = strings::rng(42);
    let mut text = strings::random_text(&mut r, Alphabet::Bytes, TEXT_SYMS);
    let pats = strings::excerpt_dictionary(&mut r, &text, 64, 32, 64);
    strings::plant_occurrences(&mut r, &mut text, &pats, 512);
    let eq_pats = strings::equal_len_dictionary(&mut r, Alphabet::Bytes, 16, 64);

    let bctx = Ctx::seq();
    let dict = Arc::new(StaticMatcher::build(&bctx, &pats).unwrap());
    let eq = EqualLenMatcher::new(&eq_pats).unwrap();

    let stream_all = |ctx: &Ctx| {
        let mut sm = StreamMatcher::new(Arc::clone(&dict));
        let mut out = Vec::new();
        for chunk in text.chunks(CHUNK) {
            out.extend(sm.push(ctx, chunk));
        }
        sm.finish();
        out
    };

    type Workload<'a> = Box<dyn Fn(&Ctx) + 'a>;
    let workloads: Vec<(&str, Workload)> = vec![
        (
            "static1d",
            Box::new(|ctx: &Ctx| {
                std::hint::black_box(dict.match_text(ctx, &text));
            }),
        ),
        (
            "equal_len",
            Box::new(|ctx: &Ctx| {
                std::hint::black_box(eq.match_text(ctx, &text));
            }),
        ),
        (
            "streaming",
            Box::new(|ctx: &Ctx| {
                std::hint::black_box(stream_all(ctx));
            }),
        ),
    ];

    let mut sections = Vec::new();
    for (name, work) in &workloads {
        let seq = mbps(TEXT_SYMS, time_median(RUNS, || work(&Ctx::seq())));
        let par: Vec<(usize, f64)> = widths()
            .into_iter()
            .map(|w| {
                // Width 1 still routes through ExecPolicy (which maps it to
                // Seq) — it is the pool path's floor, not a second Seq run.
                let ctx = Ctx::with_threads(w);
                (w, mbps(TEXT_SYMS, time_median(RUNS, || work(&ctx))))
            })
            .collect();
        eprintln!("{name}: seq {seq:.2} MB/s, par {:?}", par);
        sections.push(format!(
            "    \"{name}\": {{\"seq_mbps\": {seq:.2}, \"par_mbps\": {}}}",
            json_map(&par)
        ));
    }

    // Round-dispatch overhead at width 2: persistent pool vs per-round
    // scoped spawning (the seed's strategy).
    let n_rounds = 2_000;
    let pool_ctx = Ctx::with_threads(2);
    let _ = pool_ctx.map(4096, |i| i); // spawn workers outside the clock
    let pool_rps = rounds_per_sec(n_rounds, |data| {
        pool_ctx.for_each(data.len(), |i| {
            std::hint::black_box(data[i]);
        });
    });
    let scoped_rps = rounds_per_sec(n_rounds, |data| {
        let mid = data.len() / 2;
        std::thread::scope(|s| {
            for half in [&data[..mid], &data[mid..]] {
                s.spawn(move || {
                    for v in half {
                        std::hint::black_box(v);
                    }
                });
            }
        });
    });

    let json = format!(
        "{{\n  \"meta\": {{\"host_cpus\": {host_cpus}, \"text_bytes\": {TEXT_SYMS}, \
         \"runs\": {RUNS}, \"note\": \"par >= seq requires host_cpus > 1; on a \
         1-CPU host the pool's win is round dispatch, not throughput\"}},\n  \
         \"workloads\": {{\n{}\n  }},\n  \"round_dispatch\": {{\"width\": 2, \
         \"items_per_round\": 4096, \"pool_rounds_per_sec\": {pool_rps:.0}, \
         \"scoped_spawn_rounds_per_sec\": {scoped_rps:.0}, \
         \"pool_vs_spawn\": {:.2}}}\n}}\n",
        sections.join(",\n"),
        pool_rps / scoped_rps,
    );
    std::fs::write(&out_path, &json).expect("write baseline json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
