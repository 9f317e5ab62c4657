//! A closed-loop user at a terminal: a `login` application whose stdin and
//! stdout are `jmp_vm::io` pipes. After each command the client writes
//! `echo <marker>` and blocks in `read_line` until the marker comes back, so
//! every command is timed by blocking, never by polling.

use std::time::Instant;

use jmp_core::{Application, MpRuntime};
use jmp_vm::io::{pipe, InStream, IoToken, OutStream, PipeWriter, DEFAULT_PIPE_CAPACITY};

use crate::trace::Tracer;

pub struct Session {
    stdin: PipeWriter,
    stdout: InStream,
    app: Application,
    tag: usize,
    marks: u64,
}

impl Session {
    /// Launches `login <user> <password>` on fresh pipes with `first`
    /// already queued, and returns once the shell has run them: the output
    /// lines of `first` come back with the session.
    pub fn login(
        rt: &MpRuntime,
        tag: usize,
        user: &str,
        password: &str,
        first: &[&str],
        tr: &mut Tracer,
    ) -> Result<(Session, Vec<String>), String> {
        let (in_w, in_r) = pipe(DEFAULT_PIPE_CAPACITY);
        let (out_w, out_r) = pipe(DEFAULT_PIPE_CAPACITY);
        let stdout = OutStream::from_pipe(out_w, IoToken::SYSTEM);
        let marker = format!("@m{tag}.0");
        let mut script = String::new();
        for line in first {
            script.push_str(line);
            script.push('\n');
        }
        script.push_str(&format!("echo {marker}\n"));
        in_w.write_all(script.as_bytes())
            .map_err(|e| e.to_string())?;
        let app = tr.time("core.launch_with", || {
            rt.launch_with(
                "system",
                "login",
                &[user, password],
                Some(InStream::from_pipe(in_r, IoToken::SYSTEM)),
                Some(stdout.clone()),
                Some(stdout),
            )
        });
        let app = app.map_err(|e| format!("launching login: {e}"))?;
        let session = Session {
            stdin: in_w,
            stdout: InStream::from_pipe(out_r, IoToken::SYSTEM),
            app,
            tag,
            marks: 0,
        };
        let open = tr.begin("shell.login_main");
        let lines = session.read_until(&marker);
        tr.end(open);
        Ok((session, lines?))
    }

    /// Runs one command line and returns its output lines.
    pub fn run(&mut self, tr: &mut Tracer, line: &str) -> Result<Vec<String>, String> {
        self.run_with(tr, line, |_| Ok(()))
    }

    /// Runs one command line, calling `during` after it is sent and before
    /// its output is read: how the client acts on an application the
    /// command started while the shell waits for it.
    pub fn run_with(
        &mut self,
        tr: &mut Tracer,
        line: &str,
        during: impl FnOnce(&mut Tracer) -> Result<(), String>,
    ) -> Result<Vec<String>, String> {
        let marker = self.next_marker();
        let open = tr.begin("shell.execute_line");
        let out = self
            .send(&format!("{line}\necho {marker}\n"))
            .and_then(|()| during(tr))
            .and_then(|()| self.read_until(&marker));
        tr.end(open);
        out
    }

    /// Writes raw input to the shell.
    pub fn send(&self, text: &str) -> Result<(), String> {
        self.stdin
            .write_all(text.as_bytes())
            .map_err(|e| format!("writing to the shell: {e}"))
    }

    /// Blocks for one output line.
    pub fn read_line(&self) -> Result<String, String> {
        match self.stdout.read_line() {
            Ok(Some(line)) => Ok(line),
            Ok(None) => Err("the shell's output ended".into()),
            Err(e) => Err(format!("reading from the shell: {e}")),
        }
    }

    fn next_marker(&mut self) -> String {
        self.marks += 1;
        format!("@m{}.{}", self.tag, self.marks)
    }

    fn read_until(&self, marker: &str) -> Result<Vec<String>, String> {
        let mut lines = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == marker {
                return Ok(lines);
            }
            lines.push(line);
        }
    }

    /// Ends the session with `quit` and waits for `login` to finish;
    /// returns the wait in µs. Nothing is left to run after `quit` but the
    /// shell's and `login`'s exits, so the wait is the cost of ending and
    /// reaping them.
    pub fn quit(self, tr: &mut Tracer) -> Result<f64, String> {
        self.send("quit\n")?;
        let t = Instant::now();
        let code = tr.time("core.wait_for", || self.app.wait_for());
        let waited_us = t.elapsed().as_secs_f64() * 1e6;
        match code {
            Ok(0) => Ok(waited_us),
            Ok(code) => Err(format!("login exited with {code}")),
            Err(e) => Err(format!("waiting for login: {e}")),
        }
    }
}

impl Drop for Session {
    /// End of input ends the shell and then `login`, so a session abandoned
    /// after a failed check does not outlive its client.
    fn drop(&mut self) {
        self.stdin.close();
    }
}

/// Fails unless `lines` is exactly `expected`.
pub fn expect_lines(what: &str, lines: &[String], expected: &[&str]) -> Result<(), String> {
    if lines
        .iter()
        .map(String::as_str)
        .eq(expected.iter().copied())
    {
        Ok(())
    } else {
        Err(format!("{what}: expected {expected:?}, got {lines:?}"))
    }
}
