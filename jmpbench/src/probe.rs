//! Direct calls for the traced run: the public functions an operation
//! reaches only from inside the runtime, called with the operation's own
//! inputs and no runtime around them where the function allows it.

use std::sync::Arc;
use std::time::Instant;

use jmp_core::MpRuntime;
use jmp_shell::SimNetwork;
use jmp_vm::interp::{
    invoke_pure, verify, ClassImage, CompiledImage, Interpreter, NativeHost, Value,
};
use jmp_vm::io::{pipe, DEFAULT_PIPE_CAPACITY};
use jmp_vm::VmError;

use crate::trace::Tracer;
use crate::workloads::{push, Samples};

/// Natives with the answers the runtime gives the benchmark's applets, but
/// no security checks and no VM: the bare interpreter's host.
pub struct BareHost;

impl NativeHost for BareHost {
    fn invoke(&self, name: &str, args: Vec<Value>) -> jmp_vm::Result<Value> {
        if let Some(result) = invoke_pure(name, &args) {
            return result;
        }
        match name {
            "print" | "println" => Ok(Value::Null),
            "get_property" => Ok(Value::str(crate::world::ORIGIN)),
            "connect" => Ok(Value::Bool(true)),
            _ => Err(VmError::trap(format!("no bare native {name}"))),
        }
    }
}

/// Runs `image`'s `main` on a bare `Interpreter`; returns its value and
/// the run's ns per instruction.
pub fn run_bare(image: &ClassImage) -> Result<(Value, f64), String> {
    let interp =
        Interpreter::new(Arc::new(image.clone()), Arc::new(BareHost)).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let value = interp.run("main", Vec::new()).map_err(|e| e.to_string())?;
    let ns = t.elapsed().as_nanos() as f64;
    Ok((value, ns / interp.stats().instructions().max(1) as f64))
}

/// `SimNetwork::fetch` of `url`, then `ClassImage::from_wire` and
/// verify/compile of what came back: the appletviewer's steps before the
/// applet runs.
pub fn fetch_and_compile(rt: &MpRuntime, url: &str, tr: &mut Tracer) -> Result<(), String> {
    let network = SimNetwork::of(rt).ok_or("no network installed")?;
    let wire = tr
        .time("net.fetch", || network.fetch(rt, url))
        .map_err(|e| e.to_string())?;
    tr.time("interp.compile", || {
        let image = ClassImage::from_wire(&wire).map_err(|e| e.to_string())?;
        verify(&image).map_err(|e| e.to_string())?;
        CompiledImage::compile(Arc::new(image)).map_err(|e| e.to_string())
    })?;
    Ok(())
}

/// `data` through a bare `jmp_vm::io::pipe` pair, writer and reader on
/// their own threads, pushed as `pipe.mib_per_s_bare`.
pub fn bare_pipe(data: &[u8], samples: &mut Samples) -> Result<(), String> {
    let (w, r) = pipe(DEFAULT_PIPE_CAPACITY);
    let t = Instant::now();
    let read = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let out = w.write_all(data);
            w.close();
            out
        });
        let mut buf = vec![0u8; 4096];
        let mut total = 0usize;
        loop {
            match r.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => total += n,
                Err(e) => return Err(e.to_string()),
            }
        }
        writer
            .join()
            .expect("the pipe writer does not panic")
            .map_err(|e| e.to_string())?;
        Ok(total)
    })?;
    let secs = t.elapsed().as_secs_f64();
    if read != data.len() {
        return Err(format!("bare pipe moved {read} of {} bytes", data.len()));
    }
    push(
        samples,
        "pipe.mib_per_s_bare",
        data.len() as f64 / 1_048_576.0 / secs,
    );
    Ok(())
}
