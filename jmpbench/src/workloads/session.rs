//! `session`: the paper's unit of work. Log in as a user drawn from a
//! provisioned population, write a file, run `cat | grep | wc` over it, run
//! a hello applet, open a window and click it, quit. Client 0 reloads the
//! policy every [`POLICY_EVERY`]-th session, so the user store and the
//! decision cache keep going cold under the other client.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use jmp_awt::{ComponentId, WindowId};
use jmp_core::{Application, MpRuntime};
use jmp_security::CodeSource;
use jmp_vm::{ClassDef, VmError};

use super::{push, Samples, Workload, CLIENTS};
use crate::client::{expect_lines, Session as Shell};
use crate::probe;
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::world::{self, ORIGIN};

/// Accounts in the population.
const USERS: usize = 64;
/// Client 0 reloads the policy before every `POLICY_EVERY`-th session.
const POLICY_EVERY: u64 = 4;
/// Words the file contents are drawn from; some contain the `x` that
/// `grep` looks for.
const WORDS: [&str; 12] = [
    "alpha", "box", "cedar", "delta", "lynx", "maple", "oxide", "pine", "quartz", "sixty",
    "tundra", "wax",
];

const HELLO: &str = r#"
    class Hello
    method main/0 locals=0
        push_str "hello"
        native println/1
        pop
        push_int 42
        return_value
"#;

fn hello_url() -> String {
    format!("http://{ORIGIN}/hello.jbc")
}

/// What the `clicker` application tells its client.
enum Click {
    Ready {
        window: WindowId,
        button: ComponentId,
        open_us: f64,
    },
    /// The listener ran for the `n`-th time.
    Ack(usize),
}

pub struct Session {
    rt: MpRuntime,
    clicks: Vec<Mutex<mpsc::Receiver<Click>>>,
    dispatch_us: Arc<Mutex<Vec<f64>>>,
    sessions0: AtomicU64,
    /// The last file a session wrote, for the direct `vfs` calls.
    last_file: Mutex<Option<(String, Vec<u8>)>>,
}

impl Session {
    pub fn setup(_seed: u64) -> Result<Session, String> {
        let rt = world::runtime("session", USERS, true);
        jmp_shell::publish_applet(&rt, ORIGIN, "/hello.jbc", HELLO).map_err(|e| e.to_string())?;
        let mut senders = Vec::new();
        let mut clicks = Vec::new();
        for _ in 0..CLIENTS {
            let (tx, rx) = mpsc::channel();
            senders.push(Mutex::new(tx));
            clicks.push(Mutex::new(rx));
        }
        register_clicker(&rt, Arc::new(senders));
        let dispatch_us = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&dispatch_us);
        rt.toolkit()
            .ok_or("the session runtime has a GUI")?
            .add_dispatch_observer(Arc::new(move |_event, _tag, latency| {
                sink.lock()
                    .expect("observer mutex is never poisoned")
                    .push(latency.as_nanos() as f64 / 1e3);
            }));
        Ok(Session {
            rt,
            clicks,
            dispatch_us,
            sessions0: AtomicU64::new(0),
            last_file: Mutex::new(None),
        })
    }

    fn click_burst(
        &self,
        client: usize,
        n: usize,
        tr: &mut Tracer,
        samples: &mut Samples,
    ) -> Result<(), String> {
        let rx = self.clicks[client]
            .lock()
            .expect("click mutex is never poisoned");
        let Click::Ready {
            window,
            button,
            open_us,
        } = rx.recv().map_err(|e| e.to_string())?
        else {
            return Err("clicker acknowledged a click before it was ready".into());
        };
        push(samples, "window_open_us", open_us);
        let display = self
            .rt
            .display()
            .ok_or("the session runtime has a display")?;
        for k in 1..=n {
            let t = Instant::now();
            let open = tr.begin("awt.inject_action");
            let sent = display.inject_action(window, button);
            let ack = sent
                .map_err(|e| e.to_string())
                .and_then(|()| rx.recv().map_err(|e| e.to_string()));
            tr.end(open);
            match ack? {
                Click::Ack(got) if got == k => {}
                Click::Ack(got) => return Err(format!("click {k} was delivered as {got}")),
                Click::Ready { .. } => return Err("a second window opened".into()),
            }
            push(samples, "click_us", t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    }
}

/// `clicker <client> <n>` opens a window with one button, reports both to
/// client `<client>`, acknowledges each activation from its listener, and
/// exits after the `n`-th.
fn register_clicker(rt: &MpRuntime, senders: Arc<Vec<Mutex<mpsc::Sender<Click>>>>) {
    let main = move |args: Vec<String>| -> jmp_vm::Result<()> {
        let parse = |i: usize| {
            args.get(i)
                .and_then(|a| a.parse::<usize>().ok())
                .ok_or_else(|| VmError::illegal_state("usage: clicker <client> <n>"))
        };
        let (client, n) = (parse(0)?, parse(1)?);
        let tx = senders
            .get(client)
            .ok_or_else(|| VmError::illegal_state("no such client"))?
            .lock()
            .expect("click mutex is never poisoned")
            .clone();
        let t = Instant::now();
        let window = jmp_core::gui::create_window("clicker").map_err(VmError::from)?;
        let open_us = t.elapsed().as_secs_f64() * 1e6;
        let button = window.add_button("ok");
        let (done_tx, done_rx) = mpsc::channel();
        let count = AtomicUsize::new(0);
        let acks = tx.clone();
        window.on_action(button, move |_event| {
            let k = count.fetch_add(1, Ordering::SeqCst) + 1;
            let _ = acks.send(Click::Ack(k));
            if k == n {
                let _ = done_tx.send(());
            }
        });
        let _ = tx.send(Click::Ready {
            window: window.id(),
            button,
            open_us,
        });
        let _ = done_rx.recv();
        Application::exit(0).map_err(VmError::from)
    };
    rt.vm()
        .material()
        .register(
            ClassDef::builder("clicker").main(main).build(),
            CodeSource::local("file:/apps/clicker"),
        )
        .expect("clicker registers once");
}

/// `wc`'s line for `text`.
pub fn wc_line(text: &str) -> String {
    format!(
        "{} {} {}",
        text.lines().count(),
        text.split_whitespace().count(),
        text.len()
    )
}

/// The lines of `text` containing `pattern`, newline-terminated: what
/// `grep` writes.
pub fn grep(text: &str, pattern: &str) -> String {
    text.lines()
        .filter(|l| l.contains(pattern))
        .flat_map(|l| [l, "\n"])
        .collect()
}

/// A line of 3..=8 words, at least one of which contains an `x`.
pub fn words_line(rng: &mut Rng) -> String {
    let n = rng.range(3, 8) as usize;
    let mut words: Vec<&str> = (0..n).map(|_| *rng.pick(&WORDS)).collect();
    if !words.iter().any(|w| w.contains('x')) {
        words[0] = "box";
    }
    words.join(" ")
}

impl Workload for Session {
    fn op(
        &self,
        client: usize,
        rng: &mut Rng,
        tr: &mut Tracer,
        samples: &mut Samples,
    ) -> Result<(), String> {
        if client == 0
            && self
                .sessions0
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(POLICY_EVERY)
        {
            tr.time("security.set_policy", || world::reload_policy(&self.rt))?;
        }
        let user = world::user_name(rng.range(0, USERS as u64 - 1) as usize);
        let text = words_line(rng);
        let clicks = rng.range(4, 12) as usize;

        let t = Instant::now();
        let (mut shell, first) = Shell::login(
            &self.rt,
            client,
            &user,
            &world::password(&user),
            &["whoami"],
            tr,
        )?;
        push(samples, "login_ms", t.elapsed().as_secs_f64() * 1e3);
        expect_lines("whoami", &first, &[&user])?;

        let file = format!("f{client}");
        let out = shell.run(tr, &format!("echo {text} > {file}"))?;
        expect_lines("echo", &out, &[])?;
        let content = format!("{text}\n");
        let out = shell.run(tr, &format!("cat {file} | grep x | wc"))?;
        expect_lines("cat | grep | wc", &out, &[&wc_line(&grep(&content, "x"))])?;
        let out = shell.run(tr, &format!("appletviewer {}", hello_url()))?;
        expect_lines("appletviewer", &out, &["hello", "applet returned: 42"])?;
        let out = shell.run_with(tr, &format!("clicker {client} {clicks}"), |tr| {
            self.click_burst(client, clicks, tr, samples)
        })?;
        expect_lines("clicker", &out, &[])?;
        let stray = self.clicks[client]
            .lock()
            .expect("click mutex is never poisoned")
            .try_recv();
        if stray.is_ok() {
            return Err("the listener ran more often than clicks were injected".into());
        }
        push(samples, "reap_us", shell.quit(tr)?);
        *self.last_file.lock().expect("file mutex is never poisoned") =
            Some((format!("/home/{user}/{file}"), content.into_bytes()));
        Ok(())
    }

    fn runtimes(&self) -> Vec<MpRuntime> {
        vec![self.rt.clone()]
    }

    fn probe(&self, tr: &mut Tracer, samples: &mut Samples) -> Result<(), String> {
        let (path, data) = self
            .last_file
            .lock()
            .expect("file mutex is never poisoned")
            .clone()
            .ok_or("no session has written a file yet")?;
        let owner = path.split('/').nth(2).unwrap_or_default().to_string();
        let uid = self
            .rt
            .users()
            .lookup(&owner)
            .map_err(|e| e.to_string())?
            .id();
        for _ in 0..200 {
            tr.time("vfs.write", || self.rt.vfs().write(&path, &data, uid))
                .map_err(|e| e.to_string())?;
            let read = tr
                .time("vfs.read", || self.rt.vfs().read(&path, uid))
                .map_err(|e| e.to_string())?;
            if read != data {
                return Err("vfs read back other bytes than were written".into());
            }
            probe::fetch_and_compile(&self.rt, &hello_url(), tr)?;
        }
        let image = jmp_vm::interp::assemble(HELLO).map_err(|e| e.to_string())?;
        for _ in 0..20 {
            push(
                samples,
                "interp.ns_per_insn_bare",
                probe::run_bare(&image)?.1,
            );
            probe::bare_pipe(&data, samples)?;
        }
        Ok(())
    }

    fn take_observed(&self) -> Samples {
        let mut samples = Samples::new();
        let observed = std::mem::take(
            &mut *self
                .dispatch_us
                .lock()
                .expect("observer mutex is never poisoned"),
        );
        samples.insert("dispatch_us", observed);
        samples
    }

    fn shutdown(&self) {
        self.rt.shutdown();
    }
}
