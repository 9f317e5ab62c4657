//! `applet_compute`: one `appletviewer <url>` per operation in a
//! long-lived shell, the applet drawn from a catalog of a sum loop, a
//! recursive `fib` and a loop of checked natives. The interpreter does most
//! of the work and every security check after the first hits a warm cache.

use std::sync::Mutex;

use jmp_core::MpRuntime;
use jmp_vm::interp::{assemble, ClassImage, Value};

use super::{push, Samples, Workload, CLIENTS};
use crate::client::{expect_lines, Session as Shell};
use crate::probe;
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::world::{self, ORIGIN};

struct Applet {
    url: String,
    image: ClassImage,
    /// The line the appletviewer prints for the applet's value.
    expected: String,
}

pub struct AppletCompute {
    rt: MpRuntime,
    catalog: Vec<Applet>,
    shells: Vec<Mutex<Option<Shell>>>,
}

fn sum_source(n: u64) -> String {
    format!(
        "class Sum{n}\n\
         method main/0 locals=2\n\
         push_int {n}\n store 0\n push_int 0\n store 1\n\
         loop:\n\
         load 0\n push_int 0\n gt\n jump_if_false done\n\
         load 1\n load 0\n add\n store 1\n\
         load 0\n push_int 1\n sub\n store 0\n\
         jump loop\n\
         done:\n load 1\n return_value\n"
    )
}

fn fib_source(n: u64) -> String {
    format!(
        "class Fib{n}\n\
         method main/0 locals=0\n push_int {n}\n call fib/1\n return_value\n\
         method fib/1 locals=1\n\
         load 0\n push_int 2\n lt\n jump_if_false rec\n load 0\n return_value\n\
         rec:\n\
         load 0\n push_int 1\n sub\n call fib/1\n\
         load 0\n push_int 2\n sub\n call fib/1\n\
         add\n return_value\n"
    )
}

/// `n` rounds of reading a property and connecting back to the host it
/// names: two checked natives per round.
fn natives_source(n: u64) -> String {
    format!(
        "class Nat{n}\n\
         method main/0 locals=2\n\
         push_int {n}\n store 0\n push_int 0\n store 1\n\
         loop:\n\
         load 0\n push_int 0\n gt\n jump_if_false done\n\
         push_str \"bench.origin\"\n native get_property/1\n native connect/1\n pop\n\
         load 1\n push_int 1\n add\n store 1\n\
         load 0\n push_int 1\n sub\n store 0\n\
         jump loop\n\
         done:\n load 1\n return_value\n"
    )
}

impl AppletCompute {
    pub fn setup(_seed: u64) -> Result<AppletCompute, String> {
        let rt = world::runtime("applet_compute", CLIENTS, false);
        // The seed picks the applet of each operation; the catalog's sizes
        // are fixed so that every seed asks for the same work.
        let sources = [
            sum_source(120_000),
            sum_source(200_000),
            fib_source(19),
            fib_source(20),
            natives_source(1_200),
            natives_source(1_800),
        ];
        let mut catalog = Vec::new();
        for source in &sources {
            let image = assemble(source).map_err(|e| e.to_string())?;
            let path = format!("/{}.jbc", image.name);
            jmp_shell::publish_applet(&rt, ORIGIN, &path, source).map_err(|e| e.to_string())?;
            let (value, _) = probe::run_bare(&image)?;
            let Value::Int(v) = value else {
                return Err(format!("{} returned {value:?}", image.name));
            };
            catalog.push(Applet {
                url: format!("http://{ORIGIN}{path}"),
                image,
                expected: format!("applet returned: {v}"),
            });
        }
        let mut tr = Tracer::new(false, std::time::Instant::now());
        let mut shells = Vec::new();
        for c in 0..CLIENTS {
            let user = world::user_name(c);
            let (shell, _) = Shell::login(&rt, c, &user, &world::password(&user), &[], &mut tr)?;
            shells.push(Mutex::new(Some(shell)));
        }
        Ok(AppletCompute {
            rt,
            catalog,
            shells,
        })
    }
}

impl Workload for AppletCompute {
    fn op(
        &self,
        client: usize,
        rng: &mut Rng,
        tr: &mut Tracer,
        _samples: &mut Samples,
    ) -> Result<(), String> {
        let applet = rng.pick(&self.catalog);
        let mut guard = self.shells[client]
            .lock()
            .expect("shell mutex is never poisoned");
        let shell = guard.as_mut().ok_or("the client's shell has ended")?;
        let out = shell.run(tr, &format!("appletviewer {}", applet.url))?;
        expect_lines(&applet.url, &out, &[&applet.expected])
    }

    fn runtimes(&self) -> Vec<MpRuntime> {
        vec![self.rt.clone()]
    }

    fn probe(&self, tr: &mut Tracer, samples: &mut Samples) -> Result<(), String> {
        for _ in 0..20 {
            for applet in &self.catalog {
                probe::fetch_and_compile(&self.rt, &applet.url, tr)?;
                push(
                    samples,
                    "interp.ns_per_insn_bare",
                    probe::run_bare(&applet.image)?.1,
                );
            }
        }
        Ok(())
    }

    fn shutdown(&self) {
        let mut tr = Tracer::new(false, std::time::Instant::now());
        for shell in &self.shells {
            if let Some(shell) = shell.lock().expect("shell mutex is never poisoned").take() {
                let _ = shell.quit(&mut tr);
            }
        }
        self.rt.shutdown();
    }
}
