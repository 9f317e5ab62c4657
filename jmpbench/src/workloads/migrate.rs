//! `migrate`: `launch_image` of a long interpreted loop on runtime A,
//! `checkpoint_app` there, `restore_app` on runtime B and the resumed run to
//! completion. The `=> value` line B prints must equal the one an
//! uninterrupted run printed at set-up. Each client migrates between its
//! own pair of runtimes, so the two never share a console.

use std::sync::{Arc, Mutex};

use jmp_core::{AppSnapshot, MpRuntime};
use jmp_vm::interp::{assemble, ClassImage, CompiledImage};

use super::{push, Samples, Workload, CLIENTS};
use crate::probe;
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::world;

struct Image {
    image: ClassImage,
    /// The line an uninterrupted run prints.
    expected: String,
}

struct Pair {
    a: MpRuntime,
    b: MpRuntime,
    /// The last snapshot taken, for the direct restore re-verify.
    last_snapshot: Mutex<Option<Vec<u8>>>,
}

pub struct Migrate {
    pairs: Vec<Pair>,
    images: Vec<Image>,
}

/// Sums `i * i % 7` for `i` from `n` down to 1.
fn loop_source(n: u64) -> String {
    format!(
        "class Loop{n}\n\
         method main/0 locals=2\n\
         push_int {n}\n store 0\n push_int 0\n store 1\n\
         loop:\n\
         load 0\n push_int 0\n gt\n jump_if_false done\n\
         load 1\n load 0\n load 0\n mul\n push_int 7\n rem\n add\n store 1\n\
         load 0\n push_int 1\n sub\n store 0\n\
         jump loop\n\
         done:\n load 1\n return_value\n"
    )
}

/// The `=> value` lines in `console`.
fn results(console: &str) -> Vec<&str> {
    console.lines().filter(|l| l.starts_with("=> ")).collect()
}

const USER: &str = "u0";

impl Migrate {
    pub fn setup(_seed: u64) -> Result<Migrate, String> {
        let pairs: Vec<Pair> = (0..CLIENTS)
            .map(|c| Pair {
                a: world::runtime(&format!("migrate-a{c}"), 1, false),
                b: world::runtime(&format!("migrate-b{c}"), 1, false),
                last_snapshot: Mutex::new(None),
            })
            .collect();
        // The seed picks the image of each operation; the sizes are fixed
        // so that every seed asks for the same work.
        let mut images = Vec::new();
        for n in [175_000, 225_000, 275_000] {
            let image = assemble(&loop_source(n)).map_err(|e| e.to_string())?;
            // The reference is an uninterrupted run on the same kind of
            // runtime; the bare interpreter must agree with it.
            let rt = &pairs[0].a;
            let app = rt
                .launch_image(USER, image.clone(), &[])
                .map_err(|e| e.to_string())?;
            app.wait_for().map_err(|e| e.to_string())?;
            let console = rt.console_output();
            rt.clear_console();
            let lines = results(&console);
            let (bare, _) = probe::run_bare(&image)?;
            let expected = format!("=> {}", bare.display_string());
            if lines != [expected.as_str()] {
                return Err(format!(
                    "reference run printed {lines:?}, bare run {expected}"
                ));
            }
            images.push(Image { image, expected });
        }
        Ok(Migrate { pairs, images })
    }
}

impl Workload for Migrate {
    fn op(
        &self,
        client: usize,
        rng: &mut Rng,
        tr: &mut Tracer,
        samples: &mut Samples,
    ) -> Result<(), String> {
        let image = rng.pick(&self.images);
        let pair = &self.pairs[client];
        let app = tr
            .time("core.launch_image", || {
                pair.a.launch_image(USER, image.image.clone(), &[])
            })
            .map_err(|e| format!("launch_image: {e}"))?;
        let snapshot = tr
            .time("core.checkpoint_app", || pair.a.checkpoint_app(app.id()))
            .map_err(|e| format!("checkpoint_app: {e}"))?;
        push(samples, "snapshot_bytes", snapshot.len() as f64);
        let resumed = tr
            .time("core.restore_app", || pair.b.restore_app(&snapshot))
            .map_err(|e| format!("restore_app: {e}"))?;
        let code = tr
            .time("core.wait_for", || resumed.wait_for())
            .map_err(|e| format!("waiting for the resumed run: {e}"))?;
        let console = pair.b.console_output();
        pair.b.clear_console();
        *pair
            .last_snapshot
            .lock()
            .expect("snapshot mutex is never poisoned") = Some(snapshot);
        let lines = results(&console);
        if code != 0 || lines != [image.expected.as_str()] {
            return Err(format!(
                "resumed run exited {code} printing {lines:?}, expected {}",
                image.expected
            ));
        }
        if !results(&pair.a.console_output()).is_empty() {
            return Err("the checkpointed run finished on its origin".into());
        }
        Ok(())
    }

    fn runtimes(&self) -> Vec<MpRuntime> {
        self.pairs
            .iter()
            .flat_map(|p| [p.a.clone(), p.b.clone()])
            .collect()
    }

    fn probe(&self, _tr: &mut Tracer, samples: &mut Samples) -> Result<(), String> {
        let snapshot = self.pairs[0]
            .last_snapshot
            .lock()
            .expect("snapshot mutex is never poisoned")
            .clone()
            .ok_or("no snapshot taken yet")?;
        for _ in 0..100 {
            let t = std::time::Instant::now();
            let snap = AppSnapshot::from_bytes(&snapshot).map_err(|e| e.to_string())?;
            CompiledImage::compile(Arc::new(snap.interp.image)).map_err(|e| e.to_string())?;
            push(
                samples,
                "restore_reverify_us",
                t.elapsed().as_secs_f64() * 1e6,
            );
        }
        for image in &self.images {
            for _ in 0..3 {
                push(
                    samples,
                    "interp.ns_per_insn_bare",
                    probe::run_bare(&image.image)?.1,
                );
            }
        }
        Ok(())
    }

    fn shutdown(&self) {
        for pair in &self.pairs {
            pair.a.shutdown();
            pair.b.shutdown();
        }
    }
}
