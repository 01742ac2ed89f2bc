//! `serve-mix`: two client threads in closed loops against an in-process
//! daemon on a unix socket (default `ServeConfig` plus a persistence
//! `cache_dir`). In every block of ten requests one, at a seeded
//! position, is a cold miss: a small fault sweep with a fresh seed. The
//! rest are warm hits on small `table3`/`metrics`/`report`/`flame` jobs
//! prewarmed during set-up.
//!
//! Hits read the cache; misses write it, persist it, and once it holds
//! its 64 entries evict from it, so a read-path gain that costs the
//! write path shows.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use triarch_core::arch::{grid, Architecture};
use triarch_core::driver::{self, DEFAULT_CAMPAIGNS};
use triarch_core::parallel::run_jobs;
use triarch_kernels::{Kernel, WorkloadSet};
use triarch_serve::{
    serve, AccessRecord, Addr, Client, DriverKind, JobSpec, Outcome as Served, ServeConfig,
    ServerHandle, SubmitResponse, WorkloadKind,
};

use crate::spans::{Recorder, Span};
use crate::{
    closed_loop, describe_tail, end_to_end, finish_trace, peak_rss_mib, probe, sliced, stats,
    timed, Opts, Outcome, Samples, Stop, POOL, RENDER, RUN_DIR, SETUPS,
};

/// Client threads, each a closed loop.
const CLIENTS: u64 = 2;

/// One request in this many is a cold miss.
const MISS_EVERY: u64 = 10;

/// Requests per client in the traced phase. A fixed count, so the
/// daemon's cache counters repeat exactly from run to run.
const TRACED_OPS: usize = 400;

/// The warm-hit jobs, prewarmed in set-up.
fn hit_specs() -> Vec<JobSpec> {
    let mut specs: Vec<JobSpec> = [DriverKind::Table3, DriverKind::Metrics, DriverKind::Report]
        .into_iter()
        .map(|d| JobSpec::new(d, WorkloadKind::Small))
        .collect();
    for cell in [(Architecture::Viram, Kernel::CornerTurn), (Architecture::Raw, Kernel::Cslc)] {
        let mut flame = JobSpec::new(DriverKind::Flame, WorkloadKind::Small);
        flame.cell = Some(cell);
        specs.push(flame);
    }
    specs
}

/// The cold-miss job: a small fault sweep under a fresh seed.
fn miss_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(DriverKind::Faultsweep, WorkloadKind::Small);
    spec.seed = seed;
    spec
}

/// A daemon's directory under [`RUN_DIR`], removed by `Drop`.
struct RunDir(PathBuf);

impl RunDir {
    /// Creates `RUN_DIR/<name>-<pid>`, emptying any leftover.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    fn new(name: &str) -> Result<RunDir, String> {
        let dir = Path::new(RUN_DIR).join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// SplitMix64: the seeded stream each client draws its requests from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A running daemon with its hit jobs prewarmed.
struct Daemon {
    handle: ServerHandle,
    addr: Addr,
    /// Hit specs with the bodies their cold builds returned.
    hits: Vec<(JobSpec, String)>,
    dir: RunDir,
}

impl Daemon {
    /// Starts a daemon in a fresh directory and builds every hit job once.
    fn start(name: &str, access_log: bool) -> Result<Daemon, String> {
        let dir = RunDir::new(name)?;
        let mut config = ServeConfig::new(Addr::Unix(dir.0.join("serve.sock")));
        config.cache_dir = Some(dir.0.join("cache"));
        // Per-request log lines would go to stderr, which is not what is
        // measured.
        config.quiet = true;
        if access_log {
            config.access_log = Some(dir.0.join("access.jsonl"));
        }
        let handle = serve(config).map_err(|e| e.to_string())?;
        let addr = handle.addr().clone();
        let client = Client::new(addr.clone());
        let mut hits = Vec::new();
        for spec in hit_specs() {
            let reply = client.submit(&spec).map_err(|e| format!("prewarm: {e}"))?;
            hits.push((spec, reply.body));
        }
        Ok(Daemon { handle, addr, hits, dir })
    }

    /// Shuts the daemon down (which flushes its access log) and returns
    /// the hit bodies and its directory.
    fn stop(self) -> (Vec<(JobSpec, String)>, RunDir) {
        self.handle.shutdown();
        (self.hits, self.dir)
    }
}

/// One request of a client's loop.
struct Request {
    /// Index into the hit specs, or `None` for a miss.
    hit: Option<usize>,
    spec: JobSpec,
}

/// What one client's loop saw, aligned with its latency samples.
#[derive(Default)]
struct ClientLog {
    /// The reply's hit flag per request (`false` for a failed request).
    hit: Vec<bool>,
    /// Misses to check after the loop: sample index, spec, body.
    misses: Vec<(usize, JobSpec, String)>,
    /// Traced phase: start, end and request id per request.
    traced: Vec<(Instant, Instant, Option<String>)>,
}

/// Runs one client's closed loop.
fn client_loop(
    daemon: &Daemon,
    client: &Client,
    rng: &mut Rng,
    stop: Stop,
    traced: bool,
) -> (Samples, ClientLog) {
    let mut log = ClientLog::default();
    let mut miss_slot = 0;
    let mut next = |i: u64| {
        if i.is_multiple_of(MISS_EVERY) {
            miss_slot = rng.next() % MISS_EVERY;
        }
        if i % MISS_EVERY == miss_slot {
            // 32-bit seeds: the job wire format carries numbers as JSON
            // doubles, which cannot hold every 64-bit seed exactly.
            Request { hit: None, spec: miss_spec(rng.next() >> 32) }
        } else {
            let k = (rng.next() % daemon.hits.len() as u64) as usize;
            Request { hit: Some(k), spec: daemon.hits[k].0.clone() }
        }
    };
    let samples = closed_loop(
        stop,
        |i| {
            let request = next(i);
            let start = Instant::now();
            let reply = client.submit(&request.spec);
            (request, reply, start, Instant::now())
        },
        |(request, reply, start, end): (Request, Result<SubmitResponse, _>, Instant, Instant)| {
            let index = log.hit.len();
            let Ok(reply) = reply else {
                log.hit.push(false);
                return false;
            };
            log.hit.push(reply.hit);
            if traced {
                log.traced.push((start, end, reply.request_id.clone()));
            }
            match request.hit {
                Some(k) => reply.body == daemon.hits[k].1,
                None => {
                    log.misses.push((index, request.spec, reply.body));
                    true
                }
            }
        },
    );
    (samples, log)
}

/// Runs every client side by side and merges their samples and logs.
/// `phase` (an untraced slice, or [`SETUPS`] for the traced loop) gives
/// each loop its own seeded request stream.
fn run_clients(
    daemon: &Daemon,
    seed: u64,
    phase: u64,
    stop: Stop,
    traced: bool,
) -> (Samples, Vec<ClientLog>) {
    let parts: Vec<(Samples, ClientLog)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::new(daemon.addr.clone());
                    if traced {
                        client = client.with_request_ids();
                    }
                    let mut rng =
                        Rng(seed ^ (phase << 32) ^ (c + 1).wrapping_mul(0xa076_1d64_78bd_642f));
                    client_loop(daemon, &client, &mut rng, stop, traced)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    let (mut samples, mut logs) = (Vec::new(), Vec::new());
    for (s, l) in parts {
        samples.push(s);
        logs.push(l);
    }
    (Samples::merge(samples), logs)
}

/// Compares every served body with in-process `driver::run_job` for the
/// same spec, outside the timed path, and marks each request that served
/// a wrong body failed.
fn check_bodies(
    hits: &[(JobSpec, String)],
    samples: &mut Samples,
    logs: &[ClientLog],
) -> Result<(), String> {
    let expected = |spec: &JobSpec| driver::run_job(spec, 1).map(|a| a.body);
    for (spec, body) in hits {
        if expected(spec).map_err(|e| e.to_string())? != *body {
            samples.fail_all();
            return Ok(());
        }
    }
    let mut offset = 0;
    let mut misses = Vec::new();
    for log in logs {
        misses.extend(log.misses.iter().map(|(i, spec, body)| (offset + i, spec, body)));
        offset += log.hit.len();
    }
    let (wrong, _) = run_jobs(CLIENTS as usize, misses, |(i, spec, body)| {
        expected(spec).map(|e| (e != *body).then_some(i))
    })
    .map_err(|e| e.to_string())?;
    for i in wrong.into_iter().flatten() {
        if samples.lat_ms[i].is_finite() {
            samples.lat_ms[i] = f64::INFINITY;
            samples.failed += 1;
        }
    }
    Ok(())
}

/// Latency samples split by the reply's hit flag.
fn split(samples: &Samples, logs: &[ClientLog]) -> (Vec<f64>, Vec<f64>) {
    let flags = logs.iter().flat_map(|l| l.hit.iter());
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for (ms, &h) in samples.lat_ms.iter().zip(flags) {
        if h {
            hit.push(*ms)
        } else {
            miss.push(*ms)
        }
    }
    (hit, miss)
}

/// A counter from the daemon's Prometheus stats dump.
fn counter(stats: &str, name: &str) -> f64 {
    let flat = name.replace('.', "_");
    stats
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(n, _)| *n == flat || n.ends_with(&format!("_{flat}")))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Runs the workload.
///
/// # Errors
///
/// The daemon cannot start, a reference job fails, or the layer probe
/// finds a wrong output.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    let (started, first) = timed(|| Daemon::start("serve-mix", false));
    let daemon = started?;
    let mut logs = Vec::new();
    let mut untraced = sliced(
        o.untraced(),
        first,
        || {
            // A second daemon, started from nothing and stopped again
            // while the measured one idles between slices.
            let (started, s) = timed(|| Daemon::start("serve-mix-setup", false));
            started?.stop();
            Ok(s)
        },
        |k, stop| {
            let (samples, slice_logs) = run_clients(&daemon, o.seed, k as u64, stop, false);
            logs.extend(slice_logs);
            samples
        },
    )?;
    let rss = peak_rss_mib();
    let (hits, _) = daemon.stop();
    check_bodies(&hits, &mut untraced.samples, &logs)?;
    let mut out = Outcome::default();
    end_to_end(&mut out, o.trace, &untraced, rss);
    let (hit, miss) = split(&untraced.samples, &logs);
    for (class, v) in [("hit", &hit), ("miss", &miss)] {
        let _ = writeln!(out.text, "{class}_p50_ms    {:.3} ms", stats::median(v));
        if let Some(tail) = stats::windowed_tail(v) {
            let _ = writeln!(out.text, "{class}_tail_ms   {}", describe_tail(&tail));
        }
    }
    if !o.trace {
        return Ok(out);
    }

    let rec = Recorder::default();
    let daemon = Daemon::start("serve-mix-traced", true)?;
    let (mut traced, logs) =
        run_clients(&daemon, o.seed, SETUPS as u64, Stop::Ops(TRACED_OPS), true);
    let stats_text = Client::new(daemon.addr.clone()).stats().map_err(|e| e.to_string())?;
    let (hits, dir) = daemon.stop();
    check_bodies(&hits, &mut traced, &logs)?;
    let log_path = dir.0.join("access.jsonl");
    let records: HashMap<String, AccessRecord> = std::fs::read_to_string(&log_path)
        .map_err(|e| format!("{}: {e}", log_path.display()))?
        .lines()
        .map(|l| AccessRecord::parse(l).map(|r| (r.id.clone(), r)))
        .collect::<Result<_, _>>()?;
    drop(dir);
    let phases = spans_from_log(&rec, &logs, &records);

    let m = &mut out.metrics;
    probe::run(o.seed, m)?;
    // Every completed fault run of a miss recomputes its kernel's
    // reference on the small workload set; counted as if none aborts.
    let small = WorkloadSet::small(driver::WORKLOAD_SEED).map_err(|e| e.to_string())?;
    let runs_per_kernel = (Architecture::ALL.len() as u64 * DEFAULT_CAMPAIGNS) as f64;
    let reference: f64 = probe::reference_ms(&small).values().map(|ms| ms * runs_per_kernel).sum();
    let miss_share = miss.len() as f64 / untraced.samples.lat_ms.len() as f64;
    m.set(
        "kernels.reference_share",
        reference * miss_share / stats::mean(&untraced.samples.lat_ms),
        "ratio",
    );
    // A miss's build phase is the fault sweep the daemon runs for it: every
    // grid cell under each of the default campaigns.
    let sweep_ms = phases.get("miss.build").copied().unwrap_or(0.0);
    let runs = (grid().len() as u64 * DEFAULT_CAMPAIGNS) as f64;
    m.set("faults.sweep_ms", sweep_ms, "ms");
    m.set("faults.runs", runs, "count");
    m.set("faults.ms_per_run", sweep_ms / runs, "ms");
    m.idle(POOL);
    m.idle(RENDER);
    for class in ["hit", "miss"] {
        for phase in ["accept", "queue", "lookup", "build", "persist", "respond"] {
            let v = phases.get(&format!("{class}.{phase}")).copied().unwrap_or(0.0);
            m.set(format!("serve.{class}.{phase}_p50_ms"), v, "ms");
        }
    }
    let hits = counter(&stats_text, "serve.cache.hits");
    let lookups = hits + counter(&stats_text, "serve.cache.misses");
    m.set("serve.cache.hit_ratio", hits / lookups, "ratio");
    m.set("serve.cache.lookups", lookups, "count");
    for name in ["serve.cache.coalesced", "serve.cache.evictions", "serve.queue.rejected"] {
        m.set(name, counter(&stats_text, name), "count");
    }
    m.set("serve.persist.bytes", counter(&stats_text, "serve.persist.bytes"), "bytes");
    finish_trace(&mut out, o, &untraced.samples, &traced, &rec)?;
    Ok(out)
}

/// Records each traced request as a client span with the daemon's six
/// phases as children, matched by request id. The access log holds each
/// phase's duration, not its start, so the phases are laid end to end
/// from the request's start in the order the daemon runs them. Returns
/// the median of each `<hit|miss>.<phase>` in ms.
fn spans_from_log(
    rec: &Recorder,
    logs: &[ClientLog],
    records: &HashMap<String, AccessRecord>,
) -> HashMap<String, f64> {
    let mut samples: HashMap<String, Vec<f64>> = HashMap::new();
    let mut op = 0;
    for log in logs {
        for (start, end, id) in &log.traced {
            op += 1;
            let parent = rec.id();
            let (start_ns, end_ns) = (rec.ns(*start), rec.ns(*end));
            rec.push(Span {
                op,
                id: parent,
                parent: None,
                layer: "serve.client",
                name: String::from("serve.request"),
                start_ns,
                end_ns,
            });
            let Some(record) = id.as_ref().and_then(|id| records.get(id)) else { continue };
            let class = if record.outcome == Served::Miss { "miss" } else { "hit" };
            let mut at = start_ns;
            for (phase, us) in record.phases.named() {
                let layer = if phase == "build" { "core.driver" } else { "serve" };
                let end = (at + us * 1000).min(end_ns);
                rec.push(Span {
                    op,
                    id: rec.id(),
                    parent: Some(parent),
                    layer,
                    name: format!("serve.{phase}"),
                    start_ns: at,
                    end_ns: end,
                });
                at = end;
                samples.entry(format!("{class}.{phase}")).or_default().push(us as f64 / 1e3);
            }
        }
    }
    samples.into_iter().map(|(k, v)| (k, stats::median(&v))).collect()
}
