//! `pipe_bulk`: one line per operation in a long-lived shell, drawn from
//! `cat big | grep x | wc`, `wc < big` and `cp big big2`, over a file of a
//! few hundred KiB generated from the seed. Pipes, the file system and the
//! shell utilities do the work; `cp` and the redirect put writes beside
//! reads.

use std::sync::Mutex;

use jmp_core::MpRuntime;

use super::session::{grep, wc_line, words_line};
use super::{Samples, Workload, CLIENTS};
use crate::client::{expect_lines, Session as Shell};
use crate::probe;
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::world;

struct Client {
    shell: Option<Shell>,
    home: String,
    uid: jmp_security::UserId,
    data: Vec<u8>,
    /// `wc`'s line for the whole file and for its `grep x` lines.
    wc_all: String,
    wc_grep: String,
}

pub struct PipeBulk {
    rt: MpRuntime,
    clients: Vec<Mutex<Client>>,
}

const LINES: [&str; 3] = ["cat big | grep x | wc", "wc < big", "cp big big2"];

/// Bytes in each client's `big`: the seed fills it but never sizes it, so
/// every seed asks for the same work.
const BIG_BYTES: u64 = 384 << 10;

/// Seeded word lines, at least `bytes` long; about a third of the lines
/// keep the `x` that `grep` looks for.
fn big_file(rng: &mut Rng, bytes: u64) -> String {
    let mut text = String::new();
    while (text.len() as u64) < bytes {
        let mut line = words_line(rng);
        if rng.range(0, 2) != 0 {
            line = line.replace('x', "k");
        }
        text.push_str(&line);
        text.push('\n');
    }
    text
}

impl PipeBulk {
    pub fn setup(seed: u64) -> Result<PipeBulk, String> {
        let rt = world::runtime("pipe_bulk", CLIENTS, false);
        let mut tr = Tracer::new(false, std::time::Instant::now());
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let user = world::user_name(c);
            let account = rt.users().lookup(&user).map_err(|e| e.to_string())?;
            let mut rng = Rng::stream(seed, &format!("pipe_bulk.file{c}"));
            let text = big_file(&mut rng, BIG_BYTES);
            let home = account.home().to_string();
            rt.vfs()
                .write(&format!("{home}/big"), text.as_bytes(), account.id())
                .map_err(|e| e.to_string())?;
            let (shell, _) = Shell::login(&rt, c, &user, &world::password(&user), &[], &mut tr)?;
            clients.push(Mutex::new(Client {
                shell: Some(shell),
                home,
                uid: account.id(),
                wc_all: wc_line(&text),
                wc_grep: wc_line(&grep(&text, "x")),
                data: text.into_bytes(),
            }));
        }
        let bulk = PipeBulk { rt, clients };
        // Each line once, from one client, before the clients run
        // concurrently: see `warm_up` in main.rs for why every program's
        // first exec must happen alone.
        for line in LINES {
            bulk.run_line(0, line, &mut tr)?;
        }
        Ok(bulk)
    }

    /// Runs `line` in `client`'s shell and checks its output.
    fn run_line(&self, client: usize, line: &str, tr: &mut Tracer) -> Result<(), String> {
        let mut guard = self.clients[client]
            .lock()
            .expect("client mutex is never poisoned");
        let c = &mut *guard;
        let shell = c.shell.as_mut().ok_or("the client's shell has ended")?;
        let out = shell.run(tr, line)?;
        match line {
            "cat big | grep x | wc" => expect_lines(line, &out, &[&c.wc_grep]),
            "wc < big" => expect_lines(line, &out, &[&c.wc_all]),
            _ => {
                expect_lines(line, &out, &[])?;
                let copy = self
                    .rt
                    .vfs()
                    .read(&format!("{}/big2", c.home), c.uid)
                    .map_err(|e| e.to_string())?;
                if copy == c.data {
                    Ok(())
                } else {
                    Err("cp wrote other bytes than big holds".into())
                }
            }
        }
    }
}

impl Workload for PipeBulk {
    fn op(
        &self,
        client: usize,
        rng: &mut Rng,
        tr: &mut Tracer,
        _samples: &mut Samples,
    ) -> Result<(), String> {
        let line = *rng.pick(&LINES);
        self.run_line(client, line, tr)
    }

    fn runtimes(&self) -> Vec<MpRuntime> {
        vec![self.rt.clone()]
    }

    fn probe(&self, tr: &mut Tracer, samples: &mut Samples) -> Result<(), String> {
        let c = self.clients[0]
            .lock()
            .expect("client mutex is never poisoned");
        let (src, dst) = (format!("{}/big", c.home), format!("{}/big3", c.home));
        for _ in 0..30 {
            let data = tr
                .time("vfs.read", || self.rt.vfs().read(&src, c.uid))
                .map_err(|e| e.to_string())?;
            tr.time("vfs.write", || self.rt.vfs().write(&dst, &data, c.uid))
                .map_err(|e| e.to_string())?;
            probe::bare_pipe(&c.data, samples)?;
        }
        Ok(())
    }

    fn shutdown(&self) {
        let mut tr = Tracer::new(false, std::time::Instant::now());
        for client in &self.clients {
            if let Some(shell) = client
                .lock()
                .expect("client mutex is never poisoned")
                .shell
                .take()
            {
                let _ = shell.quit(&mut tr);
            }
        }
        self.rt.shutdown();
    }
}
