//! `jmpbench`: the whole-session benchmark of the multi-processing runtime.
//!
//! ```text
//! jmpbench --workload <session|applet_compute|pipe_bulk|migrate>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs in this one process as two closed-loop clients with
//! zero think time, each waiting for its reply the way a user at a terminal
//! does. With `--trace 0` the run sets up several times (reporting the
//! median set-up time) and measures the end-to-end metrics with tracing
//! off, as medians over short windows of the run. With `--trace 1` it
//! interleaves rounds with the benchmark's spans
//! on, with spans off, and with the runtime's always-on instruments off as
//! well, then makes direct calls into each layer, and reports the per-layer
//! metrics. Spans of a traced run are written to
//! `.jmpbench/<workload>-<seed>.trace.json`. The last line of standard
//! output is one JSON object with the result.

mod client;
mod probe;
mod stats;
mod trace;
mod workloads;
mod world;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use jmp_core::MpRuntime;

use crate::client::Session as Shell;
use crate::stats::{median, quantile, Rng};
use crate::trace::{Breakdown, Tracer};
use crate::workloads::{push, Samples, Workload, CLIENTS};

/// Set-ups per untraced run, in two batches: one before the measured phase
/// and one after it, so that their median spans more than one phase of a
/// shared host's speed. A batch is at least `SETUPS.0` set-ups, then more
/// while `SETUP_SECS` lasts, at most `SETUPS.1`. `setup_s` is the median of
/// both batches.
const SETUPS: (usize, usize) = (3, 8);
const SETUP_SECS: f64 = 1.0;
/// Operations each client runs after set-up, before anything is timed.
const WARM_OPS: usize = 3;
/// Share of a traced run spent in interleaved rounds; the rest goes to the
/// direct calls.
const ROUND_SHARE: f64 = 0.7;
/// Target length of one round of a traced run.
const ROUND_SECS: f64 = 0.5;
/// Length of the windows the untraced metrics are taken over; see
/// [`windowed`].
const WINDOW_SECS: f64 = 1.5;
/// Extra time a run may take beyond `--seconds` before it is abandoned.
const GRACE: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One closed-loop client's state across phases.
struct Client {
    index: usize,
    rng: Rng,
    tracer: Tracer,
    samples: Samples,
}

fn client_rng(seed: u64, workload: &str, client: usize) -> Rng {
    Rng::stream(seed, &format!("{workload}.client{client}"))
}

/// Seed of the warm-up's draws: warm-up is part of set-up, and set-up
/// does the same work whatever `--seed` says.
const WARM_SEED: u64 = 0;

fn clients(workload: &str, epoch: Instant) -> Vec<Client> {
    (0..CLIENTS)
        .map(|c| Client {
            index: c,
            rng: client_rng(WARM_SEED, workload, c),
            tracer: Tracer::new(false, epoch),
            samples: Samples::new(),
        })
        .collect()
}

enum Stop {
    After(Duration),
    Ops(usize),
}

/// Operations attempted and failed over a whole run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, phase: &Phase) {
        self.attempted += phase.ok + phase.failed;
        self.failed += phase.failed;
    }
}

#[derive(Default)]
struct Phase {
    lat_ms: Vec<f64>,
    /// When each successful operation ended, in s since the phase began.
    done_s: Vec<f64>,
    ok: u64,
    failed: u64,
    secs: f64,
}

/// Operation ids and the first few failure messages, shared by all phases.
#[derive(Default)]
struct Ledger {
    next_op: AtomicU64,
    errors: Mutex<Vec<String>>,
}

/// Warms a freshly set-up workload: first one operation from each client
/// in turn, then [`WARM_OPS`] from all clients at once. The serial first
/// pass makes every program's first `exec` on the new runtime happen
/// alone: two concurrent first execs of the same class can fail with
/// "loader system already defines class", a race in the system class
/// loader that is outside what this benchmark measures.
fn warm_up(w: &dyn Workload, clients: &mut [Client], ledger: &Ledger, tally: &mut Tally) {
    for i in 0..clients.len() {
        tally.add(&run_phase(w, &mut clients[i..=i], Stop::Ops(1), ledger));
    }
    tally.add(&run_phase(w, clients, Stop::Ops(WARM_OPS), ledger));
}

/// Runs every client in a closed loop until `stop`.
fn run_phase(w: &dyn Workload, clients: &mut [Client], stop: Stop, ledger: &Ledger) -> Phase {
    let start = Instant::now();
    let per_client: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let stop = &stop;
                s.spawn(move || {
                    let index = client.index;
                    let mut phase = Phase::default();
                    loop {
                        let done = match stop {
                            Stop::After(d) => start.elapsed() >= *d,
                            Stop::Ops(n) => (phase.ok + phase.failed) as usize >= *n,
                        };
                        if done {
                            return phase;
                        }
                        let id = ledger.next_op.fetch_add(1, Ordering::Relaxed) + 1;
                        let open = client.tracer.begin_op(id);
                        let t = Instant::now();
                        let outcome = w.op(
                            index,
                            &mut client.rng,
                            &mut client.tracer,
                            &mut client.samples,
                        );
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        client.tracer.end_op(open);
                        match outcome {
                            Ok(()) => {
                                phase.ok += 1;
                                phase.lat_ms.push(ms);
                                phase.done_s.push(start.elapsed().as_secs_f64());
                            }
                            Err(e) => {
                                phase.failed += 1;
                                let mut errors = ledger
                                    .errors
                                    .lock()
                                    .expect("ledger mutex is never poisoned");
                                if errors.len() < 5 {
                                    errors.push(format!("client {index}, op {id}: {e}"));
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut phase = Phase {
        secs: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for p in per_client {
        phase.lat_ms.extend(p.lat_ms);
        phase.done_s.extend(p.done_s);
        phase.ok += p.ok;
        phase.failed += p.failed;
    }
    phase
}

/// Throughput and the p50 and p90 latency of each [`WINDOW_SECS`] window
/// of `phase` (an operation counts in the window it ended in), each as its
/// median across windows. A burst of contention on a shared host spoils a
/// few windows; the median across windows leaves them out where a
/// whole-phase figure would not.
fn windowed(phase: &Phase) -> (f64, f64, f64) {
    let windows = ((phase.secs / WINDOW_SECS).floor() as usize).max(1);
    let width = phase.secs / windows as f64;
    let mut lat = vec![Vec::new(); windows];
    for (done, ms) in phase.done_s.iter().zip(&phase.lat_ms) {
        lat[((done / width) as usize).min(windows - 1)].push(*ms);
    }
    let rates: Vec<f64> = lat.iter().map(|l| l.len() as f64 / width).collect();
    let p50: Vec<f64> = lat.iter().map(|l| quantile(l, 0.5)).collect();
    let p90: Vec<f64> = lat.iter().map(|l| quantile(l, 0.9)).collect();
    (median(&rates), median(&p50), median(&p90))
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Outcome {
    attempted: u64,
    failed: u64,
    /// Internal consistency of the measurement itself.
    consistent: bool,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// A workload set up and warmed, with its clients.
type Ready = (Box<dyn Workload>, Vec<Client>);

/// Sets the workload up and warms it.
fn set_up(
    args: &Args,
    epoch: Instant,
    ledger: &Ledger,
    tally: &mut Tally,
) -> Result<Ready, String> {
    let w = workloads::setup(&args.workload, args.seed)?;
    let mut cl = clients(&args.workload, epoch);
    warm_up(w.as_ref(), &mut cl, ledger, tally);
    for c in cl.iter_mut() {
        c.rng = client_rng(args.seed, &args.workload, c.index);
    }
    Ok((w, cl))
}

/// One batch of timed set-ups (see [`SETUPS`]); returns the last workload
/// set up.
fn set_up_batch(
    args: &Args,
    epoch: Instant,
    ledger: &Ledger,
    tally: &mut Tally,
    setup_s: &mut Vec<f64>,
) -> Result<Ready, String> {
    let started = Instant::now();
    let mut n = 0;
    loop {
        n += 1;
        let t = Instant::now();
        let (w, cl) = set_up(args, epoch, ledger, tally)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if n >= SETUPS.1 || (n >= SETUPS.0 && started.elapsed().as_secs_f64() >= SETUP_SECS) {
            return Ok((w, cl));
        }
        w.shutdown();
    }
}

fn untraced(args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let ledger = Ledger::default();
    let floor_us = stats::floor_handoff_us(2000);
    let mut setup_s = Vec::new();
    let mut tally = Tally::default();
    let (w, mut cl) = set_up_batch(args, epoch, &ledger, &mut tally, &mut setup_s)?;
    let phase = run_phase(
        w.as_ref(),
        &mut cl,
        Stop::After(Duration::from_secs(args.seconds)),
        &ledger,
    );
    tally.add(&phase);
    w.shutdown();
    let (w, _) = set_up_batch(args, epoch, &ledger, &mut tally, &mut setup_s)?;
    w.shutdown();
    let Tally { attempted, failed } = tally;
    let mut notes = ledger_notes(&ledger, attempted, failed);
    notes.push(format!("host.floor_handoff_us={floor_us}"));
    notes.push(format!("set-ups: {}", setup_s.len()));
    let (ops_per_s, op_ms_p50, op_ms_p90) = windowed(&phase);
    Ok(Outcome {
        attempted,
        failed,
        consistent: true,
        metrics: vec![
            ("setup_s", median(&setup_s), "s"),
            ("ops_per_s", ops_per_s, "op/s"),
            ("op_ms_p50", op_ms_p50, "ms"),
            ("op_ms_p90", op_ms_p90, "ms"),
        ],
        notes,
    })
}

fn ledger_notes(ledger: &Ledger, attempted: u64, failed: u64) -> Vec<String> {
    let mut notes = vec![format!(
        "fail_frac={} ({failed} of {attempted} operations failed their check)",
        failed as f64 / attempted.max(1) as f64
    )];
    for e in ledger
        .errors
        .lock()
        .expect("ledger mutex is never poisoned")
        .iter()
    {
        notes.push(format!("failure: {e}"));
    }
    notes
}

/// Counter readings summed over a workload's runtimes.
#[derive(Default)]
struct Counters {
    counters: BTreeMap<String, u64>,
    instructions: u64,
    interp_cost_ns: u64,
    store_loads: u64,
}

impl Counters {
    fn read(w: &dyn Workload) -> Result<Counters, String> {
        let mut out = Counters::default();
        for rt in w.runtimes() {
            let rollup = jmp_core::obs::vm_rollup(&rt).map_err(|e| e.to_string())?;
            for (name, value) in rollup.counters {
                *out.counters.entry(name).or_default() += value;
            }
            let profile = jmp_core::obs::profile_report(&rt).map_err(|e| e.to_string())?;
            out.instructions += profile.vm.instructions;
            out.interp_cost_ns += profile.vm.cost_ns;
            out.store_loads += rt.vm().policy().user_store().map_or(0, |s| s.loads());
        }
        Ok(out)
    }

    /// Adds `after - before` to `self`.
    fn add_delta(&mut self, before: &Counters, after: &Counters) {
        for (name, value) in &after.counters {
            let base = before.counters.get(name).copied().unwrap_or(0);
            *self.counters.entry(name.clone()).or_default() += value.saturating_sub(base);
        }
        self.instructions += after.instructions.saturating_sub(before.instructions);
        self.interp_cost_ns += after.interp_cost_ns.saturating_sub(before.interp_cost_ns);
        self.store_loads += after.store_loads.saturating_sub(before.store_loads);
    }

    fn get(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// Turns the runtime's always-on instruments on or off together: the
/// profiler, the demand ledger, and the flight recorder (through
/// `jmp_core::obs::set_tracing`, which switches `FlightRecorder`).
fn set_instruments(w: &dyn Workload, on: bool) -> Result<(), String> {
    for rt in w.runtimes() {
        rt.vm().obs().profiler().set_enabled(on);
        rt.vm().obs().demands().set_enabled(on);
        jmp_core::obs::set_tracing(&rt, on).map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Benchmark spans on, runtime instruments on (the default).
    Traced,
    /// Spans off, instruments on.
    Plain,
    /// Spans off, instruments off.
    Bare,
}

/// Interactive round trips on a fresh shell: `pwd` alone (a launched
/// command) and `cd .` before it (the builtin's share is the difference).
fn shell_roundtrips(rt: &MpRuntime, samples: &mut Samples) -> Result<(), String> {
    let user = world::user_name(0);
    let mut tr = Tracer::new(false, Instant::now());
    let (shell, _) = Shell::login(rt, 99, &user, &world::password(&user), &[], &mut tr)?;
    let home = format!("/home/{user}");
    let mut pwd = Vec::new();
    let mut cd_pwd = Vec::new();
    for _ in 0..100 {
        for (text, out) in [("pwd\n", &mut pwd), ("cd .\npwd\n", &mut cd_pwd)] {
            let t = Instant::now();
            shell.send(text)?;
            let line = shell.read_line()?;
            out.push(t.elapsed().as_secs_f64() * 1e6);
            if line != home {
                return Err(format!("pwd printed {line:?}, expected {home:?}"));
            }
        }
    }
    shell.quit(&mut tr)?;
    let cmd = median(&pwd);
    push(samples, "shell.cmd_roundtrip_us", cmd);
    push(
        samples,
        "shell.builtin_roundtrip_us",
        (median(&cd_pwd) - cmd).max(0.0),
    );
    Ok(())
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let ledger = Ledger::default();
    let floor_us = stats::floor_handoff_us(2000);
    let mut tally = Tally::default();
    let (w, mut cl) = set_up(args, epoch, &ledger, &mut tally)?;

    let budget = args.seconds as f64 * ROUND_SHARE;
    let cycles = ((budget / ROUND_SECS) / 3.0).floor().max(1.0) as usize;
    let round = Duration::from_secs_f64(budget / (3 * cycles) as f64);
    let mut lat: [Vec<f64>; 3] = Default::default();
    let mut deltas = Counters::default();
    let mut observed = Samples::new();
    for c in cl.iter_mut() {
        c.samples.clear();
    }
    let (mut traced_ops, mut traced_secs) = (0u64, 0f64);
    for cycle in 0..cycles {
        // Rotating the order keeps a mode from always following another:
        // switching the instruments back on may leave catch-up work.
        let mut modes = [Mode::Traced, Mode::Plain, Mode::Bare];
        modes.rotate_left(cycle % 3);
        for mode in modes {
            for c in cl.iter_mut() {
                c.tracer.set_on(mode == Mode::Traced);
            }
            if mode == Mode::Bare {
                set_instruments(w.as_ref(), false)?;
            }
            let before = Counters::read(w.as_ref())?;
            let phase = run_phase(w.as_ref(), &mut cl, Stop::After(round), &ledger);
            let after = Counters::read(w.as_ref())?;
            if mode == Mode::Bare {
                set_instruments(w.as_ref(), true)?;
            }
            // Stage samples count only from rounds in the default
            // configuration, like the spans.
            let mut seen = w.take_observed();
            for c in cl.iter_mut() {
                for (name, values) in std::mem::take(&mut c.samples) {
                    seen.entry(name).or_default().extend(values);
                }
            }
            if mode == Mode::Traced {
                deltas.add_delta(&before, &after);
                traced_ops += phase.ok + phase.failed;
                traced_secs += phase.secs;
                for (name, values) in seen {
                    observed.entry(name).or_default().extend(values);
                }
            }
            tally.add(&phase);
            lat[mode as usize].extend(phase.lat_ms);
        }
    }

    // Peak memory of the operations, before the direct calls add theirs.
    let rss_peak_mib = stats::rss_peak_mib();

    // Direct calls, outside any operation.
    let mut direct = Samples::new();
    let mut probe_tracer = Tracer::new(true, epoch);
    let rt0 = w.runtimes()[0].clone();
    shell_roundtrips(&rt0, &mut direct)?;
    let checks = world::check_cost(&rt0)?;
    w.probe(&mut probe_tracer, &mut direct)?;
    w.shutdown();

    let spans: Vec<&[trace::Span]> = cl
        .iter()
        .map(|c| c.tracer.spans.as_slice())
        .chain([probe_tracer.spans.as_slice()])
        .collect();
    let mut breakdown = Breakdown::default();
    for s in &spans {
        breakdown.add(s);
    }
    write_trace(args, &trace::chrome_json(&spans));

    let durations = |names: &[&str]| -> Vec<f64> {
        names
            .iter()
            .flat_map(|n| trace::durations_us(&spans, n))
            .collect()
    };
    let in_ops = |names: &[&str]| -> Vec<f64> {
        names
            .iter()
            .flat_map(|n| trace::durations_us(&spans[..CLIENTS], n))
            .collect()
    };
    let sample = |name: &str| -> Vec<f64> {
        observed
            .get(name)
            .or_else(|| direct.get(name))
            .cloned()
            .unwrap_or_default()
    };
    let p50 = |v: Vec<f64>| median(&v);
    let mean = |v: Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let per_op = |v: f64| v / traced_ops.max(1) as f64;
    let pct_over = |num: f64, den: f64| {
        if den > 0.0 {
            (num / den - 1.0) * 100.0
        } else {
            0.0
        }
    };
    let mode_p50 = |m: Mode| median(&lat[m as usize]);
    let hits = deltas.get("access.cache.hits");
    let misses = deltas.get("access.cache.misses");
    let pipe_bytes = deltas.get("pipe.bytes");

    let metrics: Vec<Metric> = vec![
        (
            "core.launch_us_p50",
            p50(in_ops(&["core.launch_with", "core.launch_image"])),
            "us",
        ),
        ("core.reap_us_p50", p50(sample("reap_us")), "us"),
        (
            "core.apps_per_op",
            per_op(deltas.get("apps.execed")),
            "count",
        ),
        (
            "core.snapshot_bytes",
            mean(sample("snapshot_bytes")),
            "bytes",
        ),
        (
            "core.restore_reverify_us_p50",
            p50(sample("restore_reverify_us")),
            "us",
        ),
        ("core.self_pct", breakdown.pct("core"), "%"),
        (
            "security.checks_per_op",
            per_op(deltas.get("security.checks")),
            "count",
        ),
        (
            "security.cache_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "security.cache_invalidations_per_op",
            per_op(deltas.get("access.cache.invalidations")),
            "count",
        ),
        (
            "security.store_loads_per_op",
            per_op(deltas.store_loads as f64),
            "count",
        ),
        (
            "security.set_policy_us_p50",
            p50(durations(&["security.set_policy"])),
            "us",
        ),
        ("security.check_warm_ns", checks.warm_ns, "ns"),
        ("security.check_cold_ns", checks.cold_ns, "ns"),
        ("security.self_pct", breakdown.pct("security"), "%"),
        (
            "interp.insns_per_op",
            per_op(deltas.instructions as f64),
            "count",
        ),
        (
            "interp.ns_per_insn_vm",
            if deltas.instructions > 0 {
                deltas.interp_cost_ns as f64 / deltas.instructions as f64
            } else {
                0.0
            },
            "ns",
        ),
        (
            "interp.ns_per_insn_bare",
            p50(sample("interp.ns_per_insn_bare")),
            "ns",
        ),
        (
            "interp.compile_us_p50",
            p50(durations(&["interp.compile"])),
            "us",
        ),
        ("net.fetch_us_p50", p50(durations(&["net.fetch"])), "us"),
        ("pipe.bytes_per_op", per_op(pipe_bytes), "bytes"),
        (
            "pipe.mib_per_s_bare",
            p50(sample("pipe.mib_per_s_bare")),
            "MiB/s",
        ),
        ("vfs.read_us_p50", p50(durations(&["vfs.read"])), "us"),
        ("vfs.write_us_p50", p50(durations(&["vfs.write"])), "us"),
        (
            "awt.dispatch_us_p50",
            quantile(&sample("dispatch_us"), 0.5),
            "us",
        ),
        (
            "awt.dispatch_us_p90",
            quantile(&sample("dispatch_us"), 0.9),
            "us",
        ),
        (
            "awt.window_open_us_p50",
            p50(sample("window_open_us")),
            "us",
        ),
        (
            "awt.events_per_op",
            per_op(deltas.get("gui.dispatched")),
            "count",
        ),
        ("awt.self_pct", breakdown.pct("awt"), "%"),
        (
            "shell.builtin_roundtrip_us_p50",
            p50(sample("shell.builtin_roundtrip_us")),
            "us",
        ),
        (
            "shell.cmd_roundtrip_us_p50",
            p50(sample("shell.cmd_roundtrip_us")),
            "us",
        ),
        ("shell.self_pct", breakdown.pct("shell"), "%"),
        (
            "obs.tax_pct",
            pct_over(mode_p50(Mode::Plain), mode_p50(Mode::Bare)),
            "%",
        ),
        (
            "obs.trace_overhead_pct",
            pct_over(mode_p50(Mode::Traced), mode_p50(Mode::Plain)),
            "%",
        ),
        ("residual_pct", breakdown.pct("bench"), "%"),
        ("login_ms_p50", p50(sample("login_ms")), "ms"),
        ("click_us_p50", quantile(&sample("click_us"), 0.5), "us"),
        ("click_us_p90", quantile(&sample("click_us"), 0.9), "us"),
        (
            "pipe_mib_per_s",
            if traced_secs > 0.0 {
                pipe_bytes / 1_048_576.0 / traced_secs
            } else {
                0.0
            },
            "MiB/s",
        ),
        (
            "checkpoint_ms_p50",
            p50(durations(&["core.checkpoint_app"])) / 1e3,
            "ms",
        ),
        (
            "restore_ms_p50",
            p50(durations(&["core.restore_app"])) / 1e3,
            "ms",
        ),
        ("rss_peak_mib", rss_peak_mib, "MiB"),
        ("host.floor_handoff_us", floor_us, "us"),
        ("host.cores", cores() as f64, "count"),
    ];
    // Every traced operation's wall time is covered by the layers' self
    // times and the residual, or the breakdown is wrong.
    let total = breakdown.total_pct();
    let consistent = traced_ops == 0 || (total - 100.0).abs() < 1e-6;
    let Tally { attempted, failed } = tally;
    let mut notes = ledger_notes(&ledger, attempted, failed);
    notes.push(format!(
        "traced: {traced_ops} ops in {traced_secs:.3} s; layer self times + residual = {total:.6}% of op wall time"
    ));
    Ok(Outcome {
        attempted,
        failed,
        consistent,
        metrics,
        notes,
    })
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Writes the spans of a traced run inside the working directory.
fn write_trace(args: &Args, json: &str) {
    let dir = std::path::Path::new(".jmpbench");
    let path = dir.join(format!("{}-{}.trace.json", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("jmpbench: could not write {}: {e}", path.display());
    }
}

fn result_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0 && outcome.consistent,
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("jmpbench: {e}");
            std::process::exit(2);
        }
    };
    // A wedged operation must not hold the run past its time limit.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let limit = Duration::from_secs(args.seconds) + GRACE;
    let watchdog = std::thread::spawn(move || {
        if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(limit) {
            eprintln!(
                "jmpbench: run exceeded {} s; abandoning it",
                limit.as_secs()
            );
            std::process::exit(3);
        }
    });
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let _ = done_tx.send(());
    watchdog.join().expect("the watchdog does not panic");
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("jmpbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# workload={} seed={} trace={} clients={CLIENTS} closed-loop cores={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        cores()
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", result_json(&outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_window_does_not_move_the_windowed_figures() {
        // Three windows: two with ten 1 ms operations, one stalled burst
        // with two 50 ms operations.
        let mut phase = Phase {
            secs: 3.0 * WINDOW_SECS,
            ..Phase::default()
        };
        for (window, count, ms) in [(0.0, 10, 1.0), (1.0, 2, 50.0), (2.0, 10, 1.0)] {
            for i in 0..count {
                phase
                    .done_s
                    .push((window + f64::from(i) / 20.0) * WINDOW_SECS);
                phase.lat_ms.push(ms);
            }
        }
        let (rate, p50, p90) = windowed(&phase);
        assert_eq!(rate, 10.0 / WINDOW_SECS);
        assert_eq!((p50, p90), (1.0, 1.0));
    }
}
