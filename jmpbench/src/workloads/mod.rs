//! The four workloads. Each drives the runtime only through the crates'
//! public APIs, checks every operation's output, and names the spans it
//! records `<crate>.<fn>` after the call they wrap.

use std::collections::BTreeMap;

use jmp_core::MpRuntime;

use crate::stats::Rng;
use crate::trace::Tracer;

pub mod applet;
pub mod migrate;
pub mod pipe;
pub mod session;

/// Named samples gathered alongside spans: stage timings an operation
/// measures itself, and values from direct calls.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

pub fn push(samples: &mut Samples, name: &'static str, value: f64) {
    samples.entry(name).or_default().push(value);
}

pub trait Workload: Send + Sync {
    /// One operation by closed-loop client `client`. `Err` means a call
    /// failed or the output did not check out.
    fn op(
        &self,
        client: usize,
        rng: &mut Rng,
        tr: &mut Tracer,
        samples: &mut Samples,
    ) -> Result<(), String>;

    /// Every runtime the workload drives; the first hosts the direct probes.
    fn runtimes(&self) -> Vec<MpRuntime>;

    /// Direct calls, in the traced run, to public functions the operations
    /// reach only from inside the runtime, with the operations' inputs.
    fn probe(&self, tr: &mut Tracer, samples: &mut Samples) -> Result<(), String>;

    /// Samples the runtime reported through observers since the last call.
    fn take_observed(&self) -> Samples {
        Samples::new()
    }

    /// Ends long-lived sessions and shuts every runtime down.
    fn shutdown(&self);
}

/// Number of closed-loop clients in every workload.
pub const CLIENTS: usize = 2;

/// `name`'s workload, set up from `seed`.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "session" => Box::new(session::Session::setup(seed)?),
        "applet_compute" => Box::new(applet::AppletCompute::setup(seed)?),
        "pipe_bulk" => Box::new(pipe::PipeBulk::setup(seed)?),
        "migrate" => Box::new(migrate::Migrate::setup(seed)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

pub const NAMES: [&str; 4] = ["session", "applet_compute", "pipe_bulk", "migrate"];
