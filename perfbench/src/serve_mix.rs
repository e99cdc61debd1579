//! `serve-mix`: SQ01 round trips over loopback to an in-process `Server`
//! warm-started from wisdom. Each round runs an open-loop phase with
//! seeded Poisson arrivals (timed from when each request was due), a
//! closed-loop saturation phase, and the served kernel against the
//! iterative FFT. Round-trip percentiles come from the closed loop: in
//! the open loop a stall of the host delays every request due during it,
//! so its p99 measures how much of the run the host stalled, not the
//! server. The open-loop percentiles stay in the run record.

use crate::record::{Outcome, Tracer};
use crate::stats::{self, Rng};
use crate::Args;
use spiral_fft::baselines::IterativeFft;
use spiral_fft::codegen::plan::PlanWorkspace;
use spiral_fft::serve::wire::{self, Request, Response};
use spiral_fft::serve::{PlanService, PlanSource, Server, ServerConfig};
use spiral_fft::spl::Cplx;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transform sizes of the mix: 2^6 ..= 2^10.
const KS: std::ops::RangeInclusive<u32> = 6..=10;
/// Largest batch of one request; the mix holds batches 1..=MAX_BATCH.
const MAX_BATCH: usize = 16;
/// Rounds of [open loop, closed loop, kernel] per run.
const ROUNDS: usize = 10;
/// Server and service threads (the host's core count the mix targets).
const THREADS: usize = 2;
/// Connections, and load-generator threads per phase.
const CONNS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// How long a client waits on one response before calling it failed.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

struct Req {
    k: u32,
    n: usize,
    batch: usize,
    frame: Vec<u8>,
    inputs: Vec<Vec<Cplx>>,
    expected: Vec<Cplx>,
}

impl Req {
    fn id(i: usize) -> u64 {
        i as u64 + 1
    }

    fn flops(&self) -> f64 {
        5.0 * (self.n * self.batch) as f64 * (self.n as f64).log2()
    }

    /// Whether `resp` is the correct answer to this request (id `id`).
    fn accepts(&self, id: u64, resp: &Response) -> bool {
        match resp {
            Response::Ok { id: rid, data } => {
                *rid == id && data.len() == self.expected.len() && self.outputs_ok(data)
            }
            _ => false,
        }
    }

    fn outputs_ok(&self, data: &[Cplx]) -> bool {
        data.chunks(self.n)
            .zip(self.expected.chunks(self.n))
            .all(|(y, r)| stats::output_ok(y, r, self.n))
    }
}

/// One response as the client saw it.
struct Sample {
    rt: Duration,
    ok: bool,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(READ_TIMEOUT))?;
    s.set_write_timeout(Some(READ_TIMEOUT))?;
    Ok(s)
}

fn make_pool(seed: u64) -> Result<Vec<Req>, String> {
    let mut rng = Rng::new(seed);
    let iters: BTreeMap<u32, IterativeFft> = KS.map(|k| (k, IterativeFft::new(1 << k))).collect();
    // Each size's reference is checked against the naive DFT once.
    for k in KS {
        let n = 1usize << k;
        stats::reference(n, &rng.signal(n))?;
    }
    // Every (size, batch) class once, in seeded order: the seed draws the
    // order and the data, the mix itself is the same for every seed.
    let mut classes: Vec<(u32, usize)> = KS
        .flat_map(|k| (1..=MAX_BATCH).map(move |b| (k, b)))
        .collect();
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut pool = Vec::with_capacity(classes.len());
    for (i, &(k, batch)) in classes.iter().enumerate() {
        let n = 1usize << k;
        let inputs: Vec<Vec<Cplx>> = (0..batch).map(|_| rng.signal(n)).collect();
        let expected: Vec<Cplx> = inputs.iter().flat_map(|x| iters[&k].run(x)).collect();
        let req = Request {
            id: Req::id(i),
            n: n as u32,
            batch: batch as u32,
            deadline_ms: 0,
            data: inputs.iter().flatten().copied().collect(),
        };
        pool.push(Req {
            k,
            n,
            batch,
            frame: wire::encode_request(&req),
            inputs,
            expected,
        });
    }
    Ok(pool)
}

fn server_config(metrics: bool) -> ServerConfig {
    ServerConfig {
        workers: THREADS,
        metrics_enabled: metrics,
        ..ServerConfig::default()
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut o = Outcome::default();
    let traced = tracer.on;
    let mu = spiral_fft::smp::topology::mu();
    let limit = Duration::from_secs_f64(args.limit_us * 1e-6);
    let pool = match make_pool(args.seed) {
        Ok(p) => p,
        Err(e) => {
            o.errors.push(e);
            return o;
        }
    };
    let wisdom = args
        .out_dir
        .join(format!("serve-wisdom-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&wisdom);

    // Before timing: tune every size once and persist the wisdom file.
    {
        let (cold, _) = PlanService::with_wisdom(THREADS, mu, &wisdom);
        for k in KS {
            if let Err(e) = cold.sequential_plan(1 << k) {
                o.errors.push(format!("cold tuning of n=2^{k}: {e}"));
                return o;
            }
        }
        if let Err(e) = cold.save_wisdom() {
            o.errors.push(format!("wisdom save: {e}"));
            return o;
        }
    }

    // Set-up: wisdom load, warm plan lookups, server start; repeated.
    let reps = if traced { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut running: Option<(Server, Arc<PlanService>)> = None;
    for _ in 0..reps {
        if let Some((s, _)) = running.take() {
            s.shutdown();
        }
        tracer.begin("setup");
        let t0 = Instant::now();
        let ((svc, report), _) = tracer.time("serve", "wisdom_open", || {
            PlanService::with_wisdom(THREADS, mu, &wisdom)
        });
        let svc = Arc::new(svc);
        for k in KS {
            match tracer
                .time("serve", "plan", || svc.sequential_plan(1 << k))
                .0
            {
                Ok(p) if p.source == PlanSource::Wisdom => {}
                Ok(_) => o.errors.push(format!("n=2^{k} was not served from wisdom")),
                Err(e) => o.errors.push(format!("warm plan n=2^{k}: {e}")),
            }
        }
        let started = tracer.time("serve", "start", || {
            Server::start(Arc::clone(&svc), server_config(true))
        });
        setup.push(t0.elapsed().as_secs_f64());
        tracer.end();
        if report.loaded != KS.count() || !report.rejected.is_empty() {
            o.errors.push(report.summary());
        }
        match started.0 {
            Ok(s) => running = Some((s, svc)),
            Err(e) => {
                o.errors.push(e);
                return o;
            }
        }
    }
    let (server, svc) = running.expect("at least one set-up");
    o.e2e.set("setup_s", stats::median(&setup), "s");
    if traced {
        tracer.begin("setup-layers");
        setup_layers(&wisdom, &svc, tracer, &mut o);
        tracer.end();
    }
    let addr = server.local_addr();
    let mut conns: Vec<TcpStream> = Vec::new();
    for _ in 0..CONNS {
        match connect(addr) {
            Ok(s) => conns.push(s),
            Err(e) => {
                o.errors.push(format!("connect: {e}"));
                server.shutdown();
                return o;
            }
        }
    }

    let (open_share, sat_share, probe_share) = if traced {
        (0.3, 0.35, 0.1)
    } else {
        (0.35, 0.45, 0.0)
    };
    let kern_share = 1.0 - open_share - sat_share - probe_share;
    let slice = |share: f64| Duration::from_secs_f64(args.seconds * share / ROUNDS as f64);

    // Rounds of [open loop, closed loop, kernel]; each round gives one
    // value per metric and the run reports their median.
    let mut kernel = Kernel::default();
    let (mut p50, mut p99, mut rps, mut gflops) = (vec![], vec![], vec![], vec![]);
    let (mut open50, mut open99) = (vec![], vec![]);
    let (mut sent, mut open_ok, mut open_met, mut lag) = (0usize, 0usize, 0usize, vec![]);
    let (mut completed, mut sat_met_all, mut sat_rt) = (0usize, 0usize, vec![]);
    #[cfg(feature = "trace")]
    let mut sat_hist = None;
    for round in 0..ROUNDS {
        // Open loop: seeded Poisson arrivals, each connection at half the rate.
        let seed = args.seed ^ (round as u64) << 32;
        let (open, round_lag) = open_loop(&pool, &mut conns, args.rate, slice(open_share), seed);
        let mut rts: Vec<f64> = Vec::with_capacity(open.len());
        for s in &open {
            o.check(s.ok);
            open_ok += usize::from(s.ok);
            open_met += usize::from(s.ok && s.rt <= limit);
            rts.push(s.rt.as_secs_f64() * 1e6);
        }
        sent += open.len();
        lag.extend(round_lag);

        let rts = stats::sorted(&rts);
        open50.push(stats::quantile_sorted(&rts, 0.5));
        open99.push(stats::quantile_sorted(&rts, 0.99));

        // Closed loop at saturation: each connection sends its next
        // request as soon as the previous answer arrives.
        #[cfg(feature = "trace")]
        let before = server.metrics();
        let (sat, wall) = closed_loop(&pool, &mut conns, slice(sat_share), tracer);
        #[cfg(feature = "trace")]
        {
            sat_hist = Some((before, server.metrics()));
        }
        let (mut flops, mut met) = (0.0, 0usize);
        sat_rt.clear();
        for (i, s) in &sat {
            o.check(s.ok);
            if s.ok && s.rt <= limit {
                met += 1;
                flops += pool[*i].flops();
            }
            sat_rt.push(s.rt.as_secs_f64() * 1e6);
        }
        completed += sat.len();
        let srt = stats::sorted(&sat_rt);
        p50.push(stats::quantile_sorted(&srt, 0.5));
        p99.push(stats::quantile_sorted(&srt, 0.99));
        if stats::beyond(srt.len(), 0.99) < 10 {
            o.warnings.push(format!(
                "closed loop round {round}: only {} samples beyond p99",
                stats::beyond(srt.len(), 0.99)
            ));
        }
        sat_met_all += met;
        rps.push(met as f64 / wall.as_secs_f64());
        gflops.push(flops / wall.as_secs_f64() / 1e9);

        // The serving kernel against the hand-written FFT, interleaved.
        tracer.begin("kernel");
        kernel.run(&pool, &svc, slice(kern_share), tracer, &mut o);
        tracer.end();
    }
    o.e2e.set("rt_p50_us", stats::median(&p50), "us");
    o.e2e.set("rt_p99_us", stats::median(&p99), "us");
    o.e2e.set(
        "slo_met_share",
        open_met as f64 / sent.max(1) as f64,
        "ratio",
    );
    o.e2e.set("fwd_gflops", stats::median(&gflops), "GF/s");
    o.e2e.set("sustained_rps", stats::median(&rps), "1/s");
    kernel.finish(tracer.on, &mut o);
    let lag = stats::sorted(&lag);
    drop(conns);

    #[cfg(feature = "trace")]
    if traced {
        let probe_len = Duration::from_secs_f64(args.seconds * probe_share);
        match overhead_probe(&pool, &server, &svc, probe_len) {
            Ok(share) => o.layers.set("trace.overhead_share", share, "ratio"),
            Err(e) => o.errors.push(format!("overhead probe: {e}")),
        }
        if let Some((before, after)) = &sat_hist {
            server_layers(before, after, &server.metrics(), &sat_rt, &mut o);
        }
    }
    let _ = probe_share;

    // Negative control: a corrupted response must fail the same check.
    let first = &pool[0];
    let bad = Response::Ok {
        id: Req::id(0),
        data: stats::corrupted(&first.expected),
    };
    if first.accepts(Req::id(0), &bad) {
        o.errors
            .push("negative control: a corrupted response passed the check".to_string());
    }

    let c = server.counters();
    if traced {
        let hits = svc.cache_hits() as f64;
        let total = (svc.cache_hits() + svc.cache_misses()).max(1) as f64;
        o.layers.set("serve.cache_hit_share", hits / total, "ratio");
        o.layers.set(
            "serve.requests_per_dispatch",
            (c.dispatches + c.coalesced) as f64 / c.dispatches.max(1) as f64,
            "ratio",
        );
        o.layers.set(
            "serve.shed_share",
            (c.overloaded + c.expired) as f64 / c.requests.max(1) as f64,
            "ratio",
        );
        o.layers.set(
            "serve.tuner_invocations",
            svc.tuner_invocations() as f64,
            "count",
        );
        o.layers.set(
            "bench.gen_lag_p99_us",
            stats::quantile_sorted(&lag, 0.99),
            "us",
        );
        wire_layers(&pool, &mut o);
    }
    o.repeat.push(format!(
        "serve: tuner invocations {}",
        svc.tuner_invocations()
    ));
    for k in KS {
        if let Ok(p) = svc.sequential_plan(1 << k) {
            o.repeat.push(format!("formula n=2^{k}: {}", p.formula));
        }
    }
    let drain = server.shutdown();
    let _ = std::fs::remove_file(&wisdom);
    if !drain.counters.accounted() || drain.thread_panics > 0 || drain.counters.protocol_errors > 0
    {
        o.errors.push(format!(
            "server drain: accounted {}, thread panics {}, protocol errors {}",
            drain.counters.accounted(),
            drain.thread_panics,
            drain.counters.protocol_errors
        ));
    }
    if svc.tuner_invocations() != 0 {
        o.errors.push(format!(
            "warm service ran the tuner {} times",
            svc.tuner_invocations()
        ));
    }

    o.record("offered_rate_rps", crate::record::num(args.rate));
    o.record("latency_limit_us", crate::record::num(args.limit_us));
    o.record(
        "open_loop",
        format!(
            "{{\"rounds\": {ROUNDS}, \"sent\": {sent}, \"ok\": {open_ok}, \"p50_us_from_due_per_round\": {:?}, \"p99_us_from_due_per_round\": {:?}, \"gen_lag_us\": {{\"p50\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}}}}",
            open50,
            open99,
            stats::quantile_sorted(&lag, 0.5),
            stats::quantile_sorted(&lag, 0.99),
            lag.last().copied().unwrap_or(0.0)
        ),
    );
    o.record(
        "closed_loop",
        format!(
            "{{\"connections\": {CONNS}, \"completed\": {completed}, \"within_limit\": {sat_met_all}, \"rps_per_round\": {:?}, \"p50_us_per_round\": {:?}, \"p99_us_per_round\": {:?}}}",
            rps,
            p50,
            p99
        ),
    );
    o
}

/// Open loop: per connection one sender (sleeps until each request is
/// due, then writes it) and one receiver (reads answers in order). Round
/// trips are timed from when each request was due. Returns the samples
/// and the generator's lateness in µs.
fn open_loop(
    pool: &[Req],
    conns: &mut [TcpStream],
    rate: f64,
    len: Duration,
    seed: u64,
) -> (Vec<Sample>, Vec<f64>) {
    let lambda = rate / conns.len() as f64;
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + len;
    let mut samples = Vec::new();
    let mut lag = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (c, stream) in conns.iter_mut().enumerate() {
            let Ok(mut reader) = stream.try_clone() else {
                continue;
            };
            let (tx, rx) = mpsc::channel::<(usize, Instant)>();
            let sender = s.spawn(move || {
                let mut rng = Rng::new(seed ^ (0xa5a5 + c as u64));
                let mut due = start;
                let mut idx = c * pool.len() / CONNS;
                let mut lag = Vec::new();
                loop {
                    let gap = -(1.0 - rng.unit()).ln() / lambda;
                    due += Duration::from_secs_f64(gap);
                    if due >= end {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    lag.push(due.elapsed().as_secs_f64() * 1e6);
                    if tx.send((idx, due)).is_err()
                        || wire::write_all(stream, &pool[idx].frame).is_err()
                    {
                        break;
                    }
                    idx = (idx + 1) % pool.len();
                }
                lag
            });
            let receiver = s.spawn(move || {
                let mut out = Vec::new();
                let mut broken = false;
                for (idx, due) in rx {
                    if broken {
                        out.push(Sample {
                            rt: due.elapsed(),
                            ok: false,
                        });
                        continue;
                    }
                    let resp = wire::read_response(&mut reader);
                    let rt = due.elapsed();
                    let ok = resp
                        .as_ref()
                        .is_ok_and(|r| pool[idx].accepts(Req::id(idx), r));
                    broken = resp.is_err();
                    out.push(Sample { rt, ok });
                }
                out
            });
            handles.push((sender, receiver));
        }
        for (sender, receiver) in handles {
            lag.extend(sender.join().expect("open-loop sender panicked"));
            samples.extend(receiver.join().expect("open-loop receiver panicked"));
        }
    });
    (samples, lag)
}

/// Closed loop: one thread per connection, next request on the previous
/// answer. Returns `(pool index, sample)` pairs and the phase wall time.
fn closed_loop(
    pool: &[Req],
    conns: &mut [TcpStream],
    len: Duration,
    tracer: &mut Tracer,
) -> (Vec<(usize, Sample)>, Duration) {
    let start = Instant::now();
    let end = start + len;
    let on = tracer.on;
    let mut all = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                s.spawn(move || {
                    let mut t = Tracer::new(on);
                    t.begin("saturation");
                    let mut out = Vec::new();
                    let mut idx = (c * pool.len() / CONNS + pool.len() / 4) % pool.len();
                    while Instant::now() < end {
                        let (resp, rt) = t.time("serve", "round_trip", || {
                            wire::write_all(stream, &pool[idx].frame)
                                .and_then(|()| wire::read_response(stream))
                        });
                        let ok = resp
                            .as_ref()
                            .is_ok_and(|r| pool[idx].accepts(Req::id(idx), r));
                        out.push((idx, Sample { rt, ok }));
                        if resp.is_err() {
                            break;
                        }
                        idx = (idx + 1) % pool.len();
                    }
                    t.end();
                    (out, t)
                })
            })
            .collect();
        for h in handles {
            let (out, t) = h.join().expect("closed-loop client panicked");
            all.extend(out);
            tracer.merge(t);
        }
    });
    (all, start.elapsed())
}

/// The served kernel (`Plan::execute_into` of the plan the service runs
/// per transform) against `IterativeFft::run` on the same transforms,
/// interleaved; traced runs add `PlanService::serve_batch`, the pooled
/// dispatch the server makes. Per-transform times by size, accumulated
/// over rounds.
#[derive(Default)]
struct Kernel {
    next: usize,
    iter_t: BTreeMap<u32, Vec<f64>>,
    batch_t: BTreeMap<u32, Vec<f64>>,
    exec_t: BTreeMap<u32, Vec<f64>>,
}

impl Kernel {
    fn run(
        &mut self,
        pool: &[Req],
        svc: &PlanService,
        len: Duration,
        tracer: &mut Tracer,
        o: &mut Outcome,
    ) {
        let iters: BTreeMap<u32, IterativeFft> =
            KS.map(|k| (k, IterativeFft::new(1 << k))).collect();
        let mut ws = PlanWorkspace::default();
        let mut out = vec![Cplx::ZERO; 1 << KS.end()];
        let end = Instant::now() + len;
        while Instant::now() < end {
            let i = self.next;
            self.next += 1;
            let r = &pool[i % pool.len()];
            let Ok(served) = svc.sequential_plan(r.n) else {
                o.check(false);
                continue;
            };
            for (j, (x, want)) in r.inputs.iter().zip(r.expected.chunks(r.n)).enumerate() {
                for step in 0..2 {
                    if (step == 0) == (i + j).is_multiple_of(2) {
                        let (y, d) = tracer.time("baselines", "iterative", || iters[&r.k].run(x));
                        o.check(stats::output_ok(&y, want, r.n));
                        self.iter_t.entry(r.k).or_default().push(d.as_secs_f64());
                    } else {
                        let y = &mut out[..r.n];
                        let ((), d) = tracer.time("codegen", "execute_into", || {
                            served.plan.execute_into(x, y, &mut ws)
                        });
                        o.check(stats::output_ok(y, want, r.n));
                        self.exec_t.entry(r.k).or_default().push(d.as_secs_f64());
                    }
                }
            }
            if tracer.on {
                let b = r.batch as f64;
                let (ys, d) =
                    tracer.time("codegen", "serve_batch", || svc.serve_batch(r.n, &r.inputs));
                o.check(ys.is_ok_and(|ys| r.outputs_ok(&ys.concat())));
                self.batch_t
                    .entry(r.k)
                    .or_default()
                    .push(d.as_secs_f64() / b);
            }
        }
    }

    fn finish(&self, traced: bool, o: &mut Outcome) {
        let ratio: Vec<f64> = KS
            .filter_map(|k| {
                Some(stats::median(self.iter_t.get(&k)?) / stats::median(self.exec_t.get(&k)?))
            })
            .collect();
        o.e2e
            .set("fwd_vs_iterative", stats::geomean(&ratio), "ratio");
        if !traced {
            return;
        }
        let per: Vec<f64> = self.batch_t.values().map(|v| stats::median(v)).collect();
        o.layers.set(
            "codegen.batch_us_per_transform",
            stats::geomean(&per) * 1e6,
            "us",
        );
        for (k, v) in &self.exec_t {
            o.layers.set(
                format!("codegen.execute_into_us.n{k}"),
                stats::median(v) * 1e6,
                "us",
            );
        }
        for (k, v) in &self.iter_t {
            o.layers.set(
                format!("baselines.iterative_us.n{k}"),
                stats::median(v) * 1e6,
                "us",
            );
        }
    }
}

/// Set-up split by layer: the wisdom load as one call, then what it does
/// replayed through public functions (parse and lower, verify and
/// certify) on every stored formula.
fn setup_layers(wisdom: &std::path::Path, svc: &PlanService, tracer: &mut Tracer, o: &mut Outcome) {
    let mut open = Vec::new();
    for _ in 0..3 {
        let (_, d) = tracer.time("serve", "wisdom_store_open", || {
            spiral_fft::serve::wisdom::WisdomStore::open(wisdom)
        });
        open.push(d.as_secs_f64());
    }
    o.layers
        .set("serve.wisdom_open_s", stats::median(&open), "s");
    let (mut lower, mut check) = (Duration::ZERO, Duration::ZERO);
    let (mut flops, mut vec_flops, mut steps, mut barriers) = (0u64, 0u64, 0usize, 0usize);
    for k in KS {
        let Ok(served) = svc.sequential_plan(1 << k) else {
            continue;
        };
        let (plan, d) = tracer.time("codegen", "parse_and_lower", || {
            spiral_fft::spl::parse(&served.formula)
                .ok()
                .and_then(|f| spiral_fft::codegen::plan::Plan::from_formula(&f, 1, svc.mu()).ok())
        });
        lower += d;
        let Some(plan) = plan else {
            o.errors
                .push(format!("wisdom formula n=2^{k} does not lower"));
            continue;
        };
        let (ok, d) = tracer.time("verify", "verify_and_certify", || {
            !spiral_verify::verify_plan(&plan, &spiral_verify::VerifyOptions::default())
                .has_errors()
                && spiral_verify::certify::certify_plan(
                    &plan,
                    &spiral_verify::certify::CertOptions::default(),
                )
                .is_certified()
        });
        check += d;
        if !ok {
            o.errors
                .push(format!("wisdom plan n=2^{k} failed certification"));
        }
        flops += served.plan.flops();
        vec_flops += served.plan.vec_flops();
        steps += served.plan.steps.len();
        barriers += served.plan.barriers();
    }
    o.layers.set("codegen.lower_s", lower.as_secs_f64(), "s");
    o.layers.set("verify.check_s", check.as_secs_f64(), "s");
    o.layers.set("codegen.flops", flops as f64, "count");
    o.layers.set(
        "codegen.vec_flop_share",
        vec_flops as f64 / flops.max(1) as f64,
        "ratio",
    );
    o.layers.set("codegen.steps", steps as f64, "count");
    o.layers.set("smp.barriers", barriers as f64, "count");
    o.repeat.push(format!(
        "counts: flops {flops}, vec_flops {vec_flops}, steps {steps}, barriers {barriers}"
    ));
}

/// SQ01 encode and decode on in-memory buffers, per request of the pool.
fn wire_layers(pool: &[Req], o: &mut Outcome) {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for (i, r) in pool.iter().enumerate() {
        let req = Request {
            id: Req::id(i),
            n: r.n as u32,
            batch: r.batch as u32,
            deadline_ms: 0,
            data: r.inputs.concat(),
        };
        let resp = Response::Ok {
            id: Req::id(i),
            data: r.expected.clone(),
        };
        for _ in 0..5 {
            let t = Instant::now();
            let qf = wire::encode_request(&req);
            let rf = wire::encode_response(&resp);
            enc.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let q = wire::read_request(&mut qf.as_slice(), wire::MAX_FRAME_BYTES);
            let back = wire::read_response(&mut rf.as_slice());
            dec.push(t.elapsed().as_secs_f64() * 1e6);
            let same_req = matches!(q, Ok(wire::ReadEvent::Request(ref d)) if *d == req);
            o.check(same_req && back.is_ok_and(|b| b == resp));
        }
    }
    o.layers
        .set("serve.wire_encode_us", stats::median(&enc), "us");
    o.layers
        .set("serve.wire_decode_us", stats::median(&dec), "us");
}

/// Server-side phase latencies from the live histograms, and the part of
/// a saturation round trip the server does not see (client socket,
/// encode, decode): client p50 minus the server's p50 over the same phase.
#[cfg(feature = "trace")]
fn server_layers(
    before: &spiral_fft::serve::MetricsSnapshot,
    after: &spiral_fft::serve::MetricsSnapshot,
    end: &spiral_fft::serve::MetricsSnapshot,
    client_rt_us: &[f64],
    o: &mut Outcome,
) {
    use spiral_fft::serve::metrics as m;
    let hist = |s: &spiral_fft::serve::MetricsSnapshot, name: &str| {
        s.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| h.histogram.clone())
    };
    for (label, name) in [
        ("parse_us", m::PARSE_SECONDS),
        ("conn_queue_wait_us", m::CONN_QUEUE_WAIT_SECONDS),
        ("exec_queue_wait_us", m::EXEC_QUEUE_WAIT_SECONDS),
        ("pool_execute_us", m::POOL_EXECUTE_SECONDS),
        ("request_us", m::REQUEST_SECONDS),
    ] {
        let h = hist(end, name).unwrap_or_else(spiral_trace::metrics::HistogramSnapshot::empty);
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            o.layers.set(
                format!("serve.{label}.{tag}"),
                h.quantile(q) as f64 / 1e3,
                "us",
            );
        }
    }
    // The saturation phase alone: bucket counts after minus before.
    let (Some(a), Some(b)) = (
        hist(before, m::REQUEST_SECONDS),
        hist(after, m::REQUEST_SECONDS),
    ) else {
        return;
    };
    let mut buckets = b.buckets.clone();
    for bc in &mut buckets {
        let old = a
            .buckets
            .iter()
            .find(|x| x.index == bc.index)
            .map_or(0, |x| x.count);
        bc.count -= old.min(bc.count);
    }
    buckets.retain(|bc| bc.count > 0);
    let phase = spiral_trace::metrics::HistogramSnapshot {
        count: buckets.iter().map(|bc| bc.count).sum(),
        sum: b.sum.saturating_sub(a.sum),
        min: 0,
        max: u64::MAX,
        buckets,
    };
    let server_p50 = phase.quantile(0.5) as f64 / 1e3;
    o.layers.set(
        "serve.outside_request_us",
        stats::median(client_rt_us) - server_p50,
        "us",
    );
}

/// Tracing overhead of the serving path: the same closed loop against a
/// second server with metric recording off, alternated in blocks; the
/// share by which the recording server's median round trip is longer.
#[cfg(feature = "trace")]
fn overhead_probe(
    pool: &[Req],
    on: &Server,
    svc: &Arc<PlanService>,
    len: Duration,
) -> Result<f64, String> {
    let off = Server::start(Arc::clone(svc), server_config(false))?;
    let mut a = connect(on.local_addr()).map_err(|e| e.to_string())?;
    let mut b = connect(off.local_addr()).map_err(|e| e.to_string())?;
    let (mut t_on, mut t_off) = (Vec::new(), Vec::new());
    let end = Instant::now() + len;
    let mut i = 0usize;
    let mut result = Ok(());
    'outer: while Instant::now() < end {
        for (stream, times) in [(&mut a, &mut t_on), (&mut b, &mut t_off)] {
            for _ in 0..50 {
                let idx = i % pool.len();
                i += 1;
                let t = Instant::now();
                let resp = wire::write_all(stream, &pool[idx].frame)
                    .and_then(|()| wire::read_response(stream));
                times.push(t.elapsed().as_secs_f64());
                if !resp.is_ok_and(|r| pool[idx].accepts(Req::id(idx), &r)) {
                    result = Err("probe response failed the check".to_string());
                    break 'outer;
                }
            }
        }
    }
    drop((a, b));
    off.shutdown();
    result.map(|()| stats::median(&t_on) / stats::median(&t_off) - 1.0)
}
