//! Host-time benchmark for triarch: how long the simulators, drivers and
//! daemon take on the host to produce their (deterministic) outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-paper --seed 7 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with nothing extra attached; `--trace 1` is a separate run
//! that records spans around the calls into each layer and prints the
//! per-layer metrics named in `BENCHMARK.json`. Every operation's output
//! is checked; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod grid;
mod probe;
mod report;
mod serve;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use triarch_core::benchjson::{self, Json};
use triarch_core::parallel::PoolStats;

use crate::spans::Recorder;

/// Set-ups per run, one before each slice of the untraced loop (see
/// [`sliced`]); `setup_s` is the median of their scaled times.
pub const SETUPS: usize = 9;

/// Calibration passes at each slice boundary; their median is the
/// host's speed at that moment.
pub const CAL_REPS: usize = 5;

/// The calibration time (ms) `setup_s` is scaled to, about one pass's
/// time on a quiet host of the 2-vCPU kind the benchmark was tuned on:
/// `setup_s` is the set-up time at that host speed.
pub const REF_CAL_MS: f64 = 4.0;

/// Minimum operations in a timed loop, so the tail has ten samples
/// beyond the median even on a slow host.
pub const MIN_OPS: usize = 21;

/// Where a run keeps its sockets, cache directories and span files,
/// relative to the directory it runs in.
pub const RUN_DIR: &str = ".bench_run";

/// The workloads, each with the load it puts on the host. Why each is in
/// the benchmark is said in its module and in `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 3] = [
    ("grid-paper", "jobs=1"),
    ("report-paper", "jobs=2"),
    ("serve-mix", "clients=2 workers=2 jobs=1"),
];

/// Parsed command line.
pub struct Opts {
    /// Index into [`WORKLOADS`].
    pub workload: usize,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Opts {
    /// The untraced loop: all the seconds in an untraced run, half in a
    /// traced run (the other half runs traced, and the two walls give
    /// the tracing overhead).
    #[must_use]
    pub fn untraced(&self) -> Stop {
        let seconds = if self.trace { self.seconds / 2.0 } else { self.seconds };
        Stop::Seconds { seconds, min_ops: MIN_OPS }
    }

    /// The traced loop of a traced run.
    #[must_use]
    pub fn traced(&self) -> Stop {
        Stop::Seconds { seconds: self.seconds / 2.0, min_ops: MIN_OPS }
    }
}

/// Named metric values in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Adds metrics of a layer the workload does not exercise: the layer
    /// does no work, so its time and counts are 0.
    pub fn idle(&mut self, names: &[(&str, &'static str)]) {
        for (name, unit) in names {
            self.set(*name, 0.0, unit);
        }
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced wrong output.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Human-readable lines printed before the JSON result.
    pub text: String,
}

/// Latencies of a closed loop.
pub struct Samples {
    /// Per-operation latency in ms; a failed operation counts as
    /// infinitely slow, so it misses every latency limit.
    pub lat_ms: Vec<f64>,
    /// Operations whose call failed or whose output was wrong.
    pub failed: u64,
    /// Wall seconds from the first call to the last completion.
    pub wall_s: f64,
}

impl Samples {
    /// Marks every operation failed, for a check that can only run after
    /// the loop and finds the output they all shared wrong.
    pub fn fail_all(&mut self) {
        self.failed = self.lat_ms.len() as u64;
        self.lat_ms.fill(f64::INFINITY);
    }

    /// Merges the samples of loops that ran side by side.
    #[must_use]
    pub fn merge(parts: Vec<Samples>) -> Samples {
        let wall_s = parts.iter().map(|p| p.wall_s).fold(0.0, f64::max);
        let failed = parts.iter().map(|p| p.failed).sum();
        let lat_ms = parts.into_iter().flat_map(|p| p.lat_ms).collect();
        Samples { lat_ms, failed, wall_s }
    }

    /// Joins the samples of loops that ran one after another, in order.
    #[must_use]
    pub fn concat(parts: Vec<Samples>) -> Samples {
        let wall_s = parts.iter().map(|p| p.wall_s).sum();
        let failed = parts.iter().map(|p| p.failed).sum();
        let lat_ms = parts.into_iter().flat_map(|p| p.lat_ms).collect();
        Samples { lat_ms, failed, wall_s }
    }
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After `seconds`, once at least `min_ops` operations ran.
    Seconds {
        /// Seconds of measurement.
        seconds: f64,
        /// Operations to run however long they take.
        min_ops: usize,
    },
    /// After exactly this many operations.
    Ops(usize),
}

/// Runs `op` back to back (a closed loop) until `stop`. Only `op` is
/// timed; `check` validates its result afterwards.
pub fn closed_loop<R>(
    stop: Stop,
    mut op: impl FnMut(u64) -> R,
    mut check: impl FnMut(R) -> bool,
) -> Samples {
    let start = Instant::now();
    let mut lat_ms = Vec::new();
    let mut failed = 0;
    let more = |n: usize| match stop {
        Stop::Seconds { seconds, min_ops } => {
            n < min_ops || start.elapsed().as_secs_f64() < seconds
        }
        Stop::Ops(ops) => n < ops,
    };
    while more(lat_ms.len()) {
        let t = Instant::now();
        let result = op(lat_ms.len() as u64);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if check(result) {
            lat_ms.push(ms);
        } else {
            failed += 1;
            lat_ms.push(f64::INFINITY);
        }
    }
    Samples { lat_ms, failed, wall_s: start.elapsed().as_secs_f64() }
}

/// Times one pass of the benchmark's fixed calibration work, in ms: eight
/// independent xorshift chains (integer throughput), a sort of a fixed
/// pseudo-random slice of 64 Ki words (branches, memory that stays in
/// L2), and a tiny interpreter running a fixed pseudo-random program of
/// 4096 instructions over 16 registers and 256 KiB of memory, shaped like
/// a simulator's dispatch loop (an unpredictable branch per instruction).
///
/// The host is shared. While another tenant loads the sibling
/// hyperthread, throughput-bound code such as the simulators runs up to
/// 40% slower for tens of seconds; this work slows with it, and it is the
/// same on every commit. An operation's wall time over the calibration
/// time around it (`op_p50_cal`), and a set-up's scaled to
/// [`REF_CAL_MS`] (`setup_s`), therefore keep the program's speed and
/// drop most of the host's. The parts take about the same time; each
/// alone tracks some workloads worse than their sum does.
#[must_use]
pub fn calibrate() -> f64 {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut words: Vec<u32> = (0..1 << 16).map(|_| (next() >> 32) as u32).collect();
    let program: Vec<(u64, usize, usize)> =
        (0..4096).map(|_| (next() % 6, (next() % 16) as usize, (next() % 16) as usize)).collect();
    let mut chains: [u64; 8] = std::array::from_fn(|i| i as u64 + 1);
    let mut regs: [u64; 16] = std::array::from_fn(|i| i as u64 * 7 + 1);
    let mut mem = vec![0u64; 1 << 15];

    let t = Instant::now();
    for _ in 0..200_000 {
        for v in &mut chains {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
        }
    }
    words.sort_unstable();
    for _ in 0..50 {
        for &(op, a, b) in &program {
            let addr = regs[b] as usize & (mem.len() - 1);
            match op {
                0 => regs[a] = regs[a].wrapping_add(regs[b]),
                1 => regs[a] ^= regs[b] << 1,
                2 => mem[addr] = regs[a],
                3 => regs[a] = regs[a].wrapping_add(mem[addr]),
                4 if regs[a] & 1 == 0 => regs[b] = regs[b].wrapping_add(3),
                4 => {}
                _ => regs[a] = regs[a].rotate_left(7),
            }
        }
    }
    std::hint::black_box((&chains, &words, &regs, &mem));
    t.elapsed().as_secs_f64() * 1e3
}

/// The median of [`CAL_REPS`] calibration passes, in ms.
fn host_speed() -> f64 {
    let passes: Vec<f64> = (0..CAL_REPS).map(|_| calibrate()).collect();
    stats::median(&passes)
}

/// An untraced loop run in slices by [`sliced`].
pub struct Sliced {
    /// The slices' samples end to end.
    pub samples: Samples,
    /// Every set-up's seconds.
    pub setups: Vec<f64>,
    /// The [`host_speed`] at each slice boundary, the first before the
    /// first slice; set-up `k` ran next to boundary `k`.
    pub boundary_ms: Vec<f64>,
    /// Per sample, the calibration time (ms) around its slice: the mean
    /// of the [`host_speed`]s just before and just after the slice.
    pub cal_ms: Vec<f64>,
}

/// Runs a loop that stops at `stop` as [`SETUPS`] consecutive slices,
/// each given its share of the seconds (or operations). The first slice
/// runs on the set-up that took `first_setup` seconds; `setup` is timed
/// once before every later slice (it returns the seconds it measured),
/// so the set-ups are spread over the whole run as the operations are.
/// The host's speed is calibrated at every slice boundary.
///
/// # Errors
///
/// A set-up fails.
pub fn sliced(
    stop: Stop,
    first_setup: f64,
    mut setup: impl FnMut() -> Result<f64, String>,
    mut slice: impl FnMut(usize, Stop) -> Samples,
) -> Result<Sliced, String> {
    let each = match stop {
        Stop::Seconds { seconds, min_ops } => {
            Stop::Seconds { seconds: seconds / SETUPS as f64, min_ops: min_ops.div_ceil(SETUPS) }
        }
        Stop::Ops(ops) => Stop::Ops(ops.div_ceil(SETUPS)),
    };
    let mut setups = vec![first_setup];
    let (mut parts, mut cal_ms) = (Vec::new(), Vec::new());
    let mut boundary_ms = vec![host_speed()];
    for k in 0..SETUPS {
        if k > 0 {
            setups.push(setup()?);
        }
        let part = slice(k, each);
        boundary_ms.push(host_speed());
        let around = (boundary_ms[k] + boundary_ms[k + 1]) / 2.0;
        cal_ms.extend(std::iter::repeat_n(around, part.lat_ms.len()));
        parts.push(part);
    }
    Ok(Sliced { samples: Samples::concat(parts), setups, boundary_ms, cal_ms })
}

/// Times `f` once, in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The end-to-end metrics of an untraced loop. A traced run prints them
/// for its untraced half but reports per-layer metrics instead.
pub fn end_to_end(out: &mut Outcome, trace: bool, run: &Sliced, peak_rss: f64) {
    let s = &run.samples;
    let scaled: Vec<f64> = run
        .setups
        .iter()
        .zip(&run.boundary_ms)
        .map(|(secs, cal)| secs * REF_CAL_MS / cal)
        .collect();
    let setup_s = stats::median(&scaled);
    let (p50, tail) = latency(&s.lat_ms);
    let relative: Vec<f64> = s.lat_ms.iter().zip(&run.cal_ms).map(|(ms, cal)| ms / cal).collect();
    let p50_cal = stats::median(&relative);
    out.attempted = s.lat_ms.len() as u64;
    out.failed = s.failed;
    if !trace {
        out.metrics.set("setup_s", setup_s, "s");
        out.metrics.set("op_p50_cal", p50_cal, "cal");
    }
    let _ = writeln!(
        out.text,
        "setup_s       {setup_s:.4} s at {REF_CAL_MS} ms per calibration pass (median of {} \
         set-ups, each scaled by the calibration next to it; {:.4} s as measured)",
        run.setups.len(),
        stats::median(&run.setups)
    );
    let _ = writeln!(
        out.text,
        "op_p50_cal    {p50_cal:.3} cal (median operation wall over calibration wall; \
         calibration median {:.3} ms)",
        stats::median(&run.cal_ms)
    );
    // Printed, not declared: wall-clock latency and throughput follow the
    // shared host's speed (see `calibrate`), which moves them by more
    // than 25% from one run to the next.
    let _ = writeln!(out.text, "op_p50_ms     {p50:.3} ms");
    let _ = writeln!(out.text, "ops_per_s     {:.3} 1/s", s.lat_ms.len() as f64 / s.wall_s);
    let _ = writeln!(out.text, "op_tail_ms    {}", describe_tail(&tail));
    let _ = writeln!(
        out.text,
        "fail_ratio    {} ({} of {})",
        s.failed as f64 / s.lat_ms.len() as f64,
        s.failed,
        s.lat_ms.len()
    );
    // Printed, not declared: on serve-mix it moves between runs of the
    // same code in steps of one allocator arena's worth of cached memory.
    let _ = writeln!(out.text, "peak_rss_mib  {peak_rss:.1} MiB");
}

/// The median and (windowed) tail of latency samples (ms), in completion
/// order. At least `TAIL_BEYOND + 1` samples are required.
#[must_use]
pub fn latency(lat_ms: &[f64]) -> (f64, stats::Tail) {
    let tail = stats::windowed_tail(lat_ms).expect("closed loops run at least MIN_OPS operations");
    (stats::median(lat_ms), tail)
}

/// `"<ms> ms (p<percentile>, <beyond> of <n> samples beyond)"`, plus the
/// window count of a windowed tail.
#[must_use]
pub fn describe_tail(t: &stats::Tail) -> String {
    let windows =
        if t.windows > 1 { format!(", median of {} windows", t.windows) } else { String::new() };
    format!(
        "{:.3} ms (p{:.2}, {} of {} samples beyond{windows})",
        t.value, t.percentile, t.beyond, t.samples
    )
}

/// The process's peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer metrics of the fault layer.
pub const FAULTS: &[(&str, &str)] =
    &[("faults.sweep_ms", "ms"), ("faults.runs", "count"), ("faults.ms_per_run", "ms")];

/// Per-layer metrics of the pool layer.
pub const POOL: &[(&str, &str)] =
    &[("pool.parallelism", "ratio"), ("pool.steals", "count"), ("pool.straggler_ms", "ms")];

/// Per-layer metrics of the renderers and the roofline scorecard.
pub const RENDER: &[(&str, &str)] = &[
    ("core.render.report_html_ms", "ms"),
    ("core.render.timeline_json_ms", "ms"),
    ("core.render.metrics_prom_ms", "ms"),
    ("core.render.table3_text_ms", "ms"),
    ("core.roofline.scorecard_ms", "ms"),
];

/// Per-layer metrics of the daemon: phase medians from its access log,
/// counters from its stats dump.
pub const SERVE: &[(&str, &str)] = &[
    ("serve.hit.accept_p50_ms", "ms"),
    ("serve.hit.queue_p50_ms", "ms"),
    ("serve.hit.lookup_p50_ms", "ms"),
    ("serve.hit.build_p50_ms", "ms"),
    ("serve.hit.persist_p50_ms", "ms"),
    ("serve.hit.respond_p50_ms", "ms"),
    ("serve.miss.accept_p50_ms", "ms"),
    ("serve.miss.queue_p50_ms", "ms"),
    ("serve.miss.lookup_p50_ms", "ms"),
    ("serve.miss.build_p50_ms", "ms"),
    ("serve.miss.persist_p50_ms", "ms"),
    ("serve.miss.respond_p50_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.lookups", "count"),
    ("serve.cache.coalesced", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.persist.bytes", "bytes"),
    ("serve.queue.rejected", "count"),
];

/// `pool.*` from the pool batches of each traced operation: busy over
/// wall, steals, and how far each batch's wall exceeds a perfectly
/// balanced one (the time the slowest job keeps the batch open); medians
/// over operations.
pub fn pool_metrics(m: &mut Metrics, per_op: &[Vec<PoolStats>]) {
    let (mut parallelism, mut steals, mut straggler) = (Vec::new(), Vec::new(), Vec::new());
    for batches in per_op {
        let wall: f64 = batches.iter().map(|b| b.wall.as_secs_f64()).sum();
        let busy: f64 = batches.iter().map(|b| b.busy.as_secs_f64()).sum();
        parallelism.push(busy / wall);
        steals.push(batches.iter().map(|b| b.steals as f64).sum());
        straggler.push(
            batches
                .iter()
                .map(|b| {
                    (b.wall.as_secs_f64() - b.busy.as_secs_f64() / b.workers.max(1) as f64) * 1e3
                })
                .sum(),
        );
    }
    m.set("pool.parallelism", stats::median(&parallelism), "ratio");
    m.set("pool.steals", stats::median(&steals), "count");
    m.set("pool.straggler_ms", stats::median(&straggler), "ms");
}

/// Closes a traced run: the tracing overhead (traced over untraced
/// median operation wall), the per-layer self-time table, and the spans
/// written to `RUN_DIR/spans-<workload>-<seed>.jsonl`.
///
/// # Errors
///
/// The span file cannot be written.
pub fn finish_trace(
    out: &mut Outcome,
    o: &Opts,
    untraced: &Samples,
    traced: &Samples,
    rec: &Recorder,
) -> Result<(), String> {
    let ratio = stats::median(&traced.lat_ms) / stats::median(&untraced.lat_ms) - 1.0;
    out.metrics.set("bench.trace_overhead_ratio", ratio, "ratio");
    out.attempted = (untraced.lat_ms.len() + traced.lat_ms.len()) as u64;
    out.failed = untraced.failed + traced.failed;
    let spans = rec.spans();
    let path =
        Path::new(RUN_DIR).join(format!("spans-{}-{}.jsonl", WORKLOADS[o.workload].0, o.seed));
    std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
    std::fs::write(&path, spans::to_jsonl(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let _ = writeln!(
        out.text,
        "trace: {} traced operations, {} spans in {}; overhead {ratio:.4} (traced vs untraced p50)",
        traced.lat_ms.len(),
        spans.len(),
        path.display()
    );
    out.text.push_str(&spans::render_self_time(&spans, traced.lat_ms.len()));
    Ok(())
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|(name, _)| name == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds '{value}'"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}' (0 or 1)")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `BENCHMARK.json`, which declares every metric and why each workload
/// is in the benchmark.
fn benchmark_json() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    benchjson::parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// The top-level list `key` of `BENCHMARK.json`.
fn list<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.as_obj()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .and_then(|(_, v)| v.as_arr())
        .ok_or_else(|| format!("BENCHMARK.json: no '{key}' list"))
}

/// A string field of a list entry.
fn text_field<'a>(entry: &'a Json, key: &str) -> Option<&'a str> {
    match entry.as_obj()?.iter().find(|(k, _)| k == key)? {
        (_, Json::Str(s)) => Some(s),
        _ => None,
    }
}

/// Shortest round-trip decimal; an infinite latency (a failed
/// operation) is written as the largest finite number, since JSON has
/// no infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

fn run(opts: &Opts, doc: &Json) -> Result<(Outcome, bool), String> {
    let key = if opts.trace { "per_layer" } else { "end_to_end" };
    let declared: Vec<&str> =
        list(doc, key)?.iter().filter_map(|m| text_field(m, "name")).collect();
    let out = match WORKLOADS[opts.workload].0 {
        "grid-paper" => grid::run(opts)?,
        "report-paper" => report::run(opts)?,
        _ => serve::run(opts)?,
    };
    let emitted: Vec<&str> = out.metrics.0.iter().map(|(n, _, _)| n.as_str()).collect();
    let missing: Vec<&&str> = declared.iter().filter(|d| !emitted.contains(d)).collect();
    let extra: Vec<&&str> = emitted.iter().filter(|e| !declared.contains(e)).collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Err(format!(
            "metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
        ));
    }
    let correct = out.failed == 0;
    Ok((out, correct))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <grid-paper|report-paper|serve-mix> --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let (name, load) = WORKLOADS[opts.workload];
    let doc = match benchmark_json() {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let why = list(&doc, "workloads")
        .ok()
        .and_then(|ws| ws.iter().find(|w| text_field(w, "name") == Some(name)))
        .and_then(|w| text_field(w, "why"))
        .unwrap_or("-");
    println!(
        "# perfbench workload={name} {load} seed={} seconds={} trace={} nproc={} rev={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        triarch_pool::available_workers(),
        benchjson::git_rev()
    );
    println!("# why: {why}");
    let (out, correct) = match run(&opts, &doc) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", out.text);
    if opts.trace {
        for (name, value, unit) in &out.metrics.0 {
            println!("{name:<40} {value:>16.6} {unit}");
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_spreads_setups_and_calibrates_every_sample() {
        let mut later_setups = 0;
        let run = sliced(
            Stop::Ops(20),
            0.5,
            || {
                later_setups += 1;
                Ok(0.25)
            },
            |_, stop| closed_loop(stop, |_| (), |()| true),
        )
        .unwrap();
        assert_eq!(later_setups, SETUPS - 1);
        assert_eq!(run.setups.len(), SETUPS);
        assert_eq!(run.setups[0], 0.5);
        assert_eq!(run.samples.lat_ms.len(), SETUPS * 20usize.div_ceil(SETUPS));
        assert_eq!(run.boundary_ms.len(), SETUPS + 1);
        assert_eq!(run.cal_ms.len(), run.samples.lat_ms.len());
        assert!(run.cal_ms.iter().all(|ms| ms.is_finite() && *ms > 0.0));
    }

    #[test]
    fn concat_adds_walls_and_keeps_order() {
        let part = |lat: &[f64], failed, wall_s| Samples { lat_ms: lat.to_vec(), failed, wall_s };
        let s = Samples::concat(vec![part(&[1.0, 2.0], 0, 1.5), part(&[3.0], 1, 2.0)]);
        assert_eq!(s.lat_ms, [1.0, 2.0, 3.0]);
        assert_eq!((s.failed, s.wall_s), (1, 3.5));
    }
}
