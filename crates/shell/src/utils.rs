//! The utility applications (paper §6.1: "we equipped the shell with a few
//! built-in commands such as `cd` and `quit`, and implemented utility
//! applications including `ls` and `cat`").
//!
//! Each utility is ordinary application code: it talks to the world through
//! its application's standard streams ([`jsystem`]) and the checked file API
//! ([`files`]), so permissions, users and redirection all apply uniformly.
//! `cat` and friends read `System.in` when given no file arguments, so they
//! "also work if they are not run from a terminal (such as when they are
//! used in a pipe)" (§6.2).

use jmp_core::{files, jsystem, login, AppId, AppStatus, Application, MpRuntime};
use jmp_vfs::FileKind;
use jmp_vm::io::DEFAULT_PIPE_CAPACITY;
use jmp_vm::{Result, VmError};

fn io_err(e: jmp_core::Error) -> VmError {
    e.into()
}

/// `ls [-l] [path ...]` — list directories (or stat files).
pub fn ls_main(args: Vec<String>) -> Result<()> {
    let long = args.iter().any(|a| a == "-l");
    let paths: Vec<String> = args.into_iter().filter(|a| a != "-l").collect();
    let paths = if paths.is_empty() {
        vec![".".to_string()]
    } else {
        paths
    };
    for path in paths {
        match files::stat(&path) {
            Err(e) => jsystem::eprintln(&format!("ls: {e}")).map_err(io_err)?,
            Ok(info) if info.kind == FileKind::File => {
                print_entry(&path, &info, long)?;
            }
            Ok(_) => {
                let entries = files::list_dir(&path).map_err(io_err)?;
                for entry in entries {
                    print_entry(&entry.name, &entry.info, long)?;
                }
            }
        }
    }
    Ok(())
}

fn print_entry(name: &str, info: &jmp_vfs::FileInfo, long: bool) -> Result<()> {
    if long {
        let kind = match info.kind {
            FileKind::Directory => 'd',
            FileKind::File => '-',
        };
        jsystem::println(&format!(
            "{kind}{} {:>4} {:>8} {name}",
            info.mode, info.owner.0, info.size
        ))
        .map_err(io_err)
    } else {
        jsystem::println(name).map_err(io_err)
    }
}

/// `cat [file ...]` — concatenate files (or stdin) to stdout.
pub fn cat_main(args: Vec<String>) -> Result<()> {
    let out = jsystem::stdout().map_err(io_err)?;
    if args.is_empty() {
        let input = jsystem::stdin().map_err(io_err)?;
        let mut buf = [0u8; 4096];
        loop {
            let n = input.read(&mut buf)?;
            if n == 0 {
                return Ok(());
            }
            out.write(&buf[..n])?;
        }
    }
    for path in args {
        match files::read(&path) {
            Ok(data) => out.write(&data)?,
            Err(e) => jsystem::eprintln(&format!("cat: {e}")).map_err(io_err)?,
        }
    }
    Ok(())
}

/// `echo [args ...]` — print arguments.
pub fn echo_main(args: Vec<String>) -> Result<()> {
    jsystem::println(&args.join(" ")).map_err(io_err)
}

/// `head [-n N] [file]` — first N (default 10) lines.
pub fn head_main(args: Vec<String>) -> Result<()> {
    let mut n = 10usize;
    let mut file = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "-n" {
            n = iter
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| VmError::Io {
                    message: "head: -n needs a number".into(),
                })?;
        } else {
            file = Some(arg);
        }
    }
    let text = match file {
        Some(path) => files::read_string(&path).map_err(io_err)?,
        None => {
            let input = jsystem::stdin().map_err(io_err)?;
            String::from_utf8_lossy(&input.read_to_end()?).into_owned()
        }
    };
    for line in text.lines().take(n) {
        jsystem::println(line).map_err(io_err)?;
    }
    Ok(())
}

/// Reads the current application's stdin to end-of-file in pipe-sized
/// chunks and hands `block` runs of whole lines: every block but the last
/// ends just after a `\n`, and the unfinished last line of one read is
/// carried over to the next. The tail left at end-of-file is the final
/// block.
///
/// Lossy UTF-8 decoding, `lines()` and `split_whitespace()` never span a
/// `\n`, so per-block results add up to the whole-input results exactly,
/// while a pipeline's stages overlap instead of each buffering its whole
/// input first.
fn for_each_line_block(mut block: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
    let input = jsystem::stdin().map_err(io_err)?;
    // `buf[..filled]` holds the carried partial line; reads land after it.
    let mut buf = Vec::new();
    let mut filled = 0;
    loop {
        buf.resize(filled + DEFAULT_PIPE_CAPACITY, 0);
        let n = input.read(&mut buf[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Ok(())
            } else {
                block(&buf[..filled])
            };
        }
        let start = filled;
        filled += n;
        let Some(last_newline) = buf[start..filled].iter().rposition(|&b| b == b'\n') else {
            continue;
        };
        let end = start + last_newline + 1;
        block(&buf[..end])?;
        buf.copy_within(end..filled, 0);
        filled -= end;
    }
}

/// `wc [file]` — count lines, words, bytes. Stdin is counted block by block
/// as it arrives; the byte count is raw bytes.
pub fn wc_main(args: Vec<String>) -> Result<()> {
    let (mut lines, mut words, mut bytes) = (0, 0, 0);
    let mut count = |data: &[u8]| {
        let text = String::from_utf8_lossy(data);
        lines += text.lines().count();
        words += text.split_whitespace().count();
        bytes += data.len();
        Ok(())
    };
    match args.first() {
        Some(path) => count(&files::read(path).map_err(io_err)?)?,
        None => for_each_line_block(count)?,
    }
    jsystem::println(&format!("{lines} {words} {bytes}")).map_err(io_err)
}

/// Matching lines are collected here and written to stdout once this many
/// bytes are waiting, so a pipe write carries at most this plus one line.
const GREP_BATCH: usize = 4096;

/// `grep pattern [file]` — print lines containing `pattern` (substring).
/// Stdin is scanned block by block as it arrives; matches go to stdout in
/// batches of about [`GREP_BATCH`] bytes rather than one write per line.
pub fn grep_main(args: Vec<String>) -> Result<()> {
    let pattern = args.first().cloned().ok_or_else(|| VmError::Io {
        message: "grep: missing pattern".into(),
    })?;
    let out = jsystem::stdout().map_err(io_err)?;
    let mut batch = Vec::with_capacity(2 * GREP_BATCH);
    let mut scan = |data: &[u8]| {
        for line in String::from_utf8_lossy(data).lines() {
            if line.contains(&pattern) {
                batch.extend_from_slice(line.as_bytes());
                batch.push(b'\n');
                if batch.len() >= GREP_BATCH {
                    out.write(&batch)?;
                    batch.clear();
                }
            }
        }
        Ok(())
    };
    match args.get(1) {
        Some(path) => scan(&files::read(path).map_err(io_err)?)?,
        None => for_each_line_block(&mut scan)?,
    }
    if batch.is_empty() {
        Ok(())
    } else {
        out.write(&batch)
    }
}

/// `ps` — list running applications (the multi-processing `ps`).
pub fn ps_main(_args: Vec<String>) -> Result<()> {
    let rt = MpRuntime::current().ok_or_else(|| VmError::illegal_state("no runtime"))?;
    jsystem::println("  ID USER     THREADS STATUS   NAME").map_err(io_err)?;
    for app in rt.applications() {
        let status = match app.status() {
            AppStatus::Running => "running",
            AppStatus::Exiting => "exiting",
            AppStatus::Finished(_) => "done",
        };
        jsystem::println(&format!(
            "{:>4} {:<8} {:>7} {:<8} {}",
            app.id().0,
            app.user().name(),
            app.group().thread_count(),
            status,
            app.name(),
        ))
        .map_err(io_err)?;
    }
    Ok(())
}

/// `kill <app-id>` — stop an application. Access is governed by the system
/// security manager's rules; the policy may grant
/// `RuntimePermission("stopApplication")` to this code source.
pub fn kill_main(args: Vec<String>) -> Result<()> {
    let id: u64 = args
        .first()
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| VmError::Io {
            message: "kill: usage: kill <app-id>".into(),
        })?;
    let rt = MpRuntime::current().ok_or_else(|| VmError::illegal_state("no runtime"))?;
    match rt.application(AppId(id)) {
        Some(app) => app.stop(143).map_err(io_err),
        None => jsystem::eprintln(&format!("kill: no such application: {id}")).map_err(io_err),
    }
}

/// `sleep <millis>` — sleep (milliseconds, to keep tests quick).
pub fn sleep_main(args: Vec<String>) -> Result<()> {
    let ms: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(0);
    jmp_vm::thread::sleep(std::time::Duration::from_millis(ms))
}

/// `pwd` — print the working directory.
pub fn pwd_main(_args: Vec<String>) -> Result<()> {
    let app = Application::current().ok_or_else(|| VmError::illegal_state("no app"))?;
    jsystem::println(&app.cwd()).map_err(io_err)
}

/// `whoami` — print the running user.
pub fn whoami_main(_args: Vec<String>) -> Result<()> {
    let app = Application::current().ok_or_else(|| VmError::illegal_state("no app"))?;
    jsystem::println(app.user().name()).map_err(io_err)
}

/// `touch <file ...>`.
pub fn touch_main(args: Vec<String>) -> Result<()> {
    for path in args {
        if let Err(e) = files::write(&path, b"") {
            jsystem::eprintln(&format!("touch: {e}")).map_err(io_err)?;
        }
    }
    Ok(())
}

/// `mkdir <dir ...>`.
pub fn mkdir_main(args: Vec<String>) -> Result<()> {
    for path in args {
        if let Err(e) = files::mkdir(&path) {
            jsystem::eprintln(&format!("mkdir: {e}")).map_err(io_err)?;
        }
    }
    Ok(())
}

/// `rm <file ...>` — delete files (the paper's §3.3 `checkDelete` path).
pub fn rm_main(args: Vec<String>) -> Result<()> {
    for path in args {
        if let Err(e) = files::delete(&path) {
            jsystem::eprintln(&format!("rm: {e}")).map_err(io_err)?;
        }
    }
    Ok(())
}

/// `cp <src> <dst>`.
pub fn cp_main(args: Vec<String>) -> Result<()> {
    let (src, dst) = match (args.first(), args.get(1)) {
        (Some(s), Some(d)) => (s.clone(), d.clone()),
        _ => {
            return jsystem::eprintln("cp: usage: cp <src> <dst>").map_err(io_err);
        }
    };
    match files::read(&src).and_then(|data| files::write(&dst, &data)) {
        Ok(()) => Ok(()),
        Err(e) => jsystem::eprintln(&format!("cp: {e}")).map_err(io_err),
    }
}

/// `mv <src> <dst>`.
pub fn mv_main(args: Vec<String>) -> Result<()> {
    let (src, dst) = match (args.first(), args.get(1)) {
        (Some(s), Some(d)) => (s.clone(), d.clone()),
        _ => {
            return jsystem::eprintln("mv: usage: mv <src> <dst>").map_err(io_err);
        }
    };
    match files::rename(&src, &dst) {
        Ok(()) => Ok(()),
        Err(e) => jsystem::eprintln(&format!("mv: {e}")).map_err(io_err),
    }
}

/// `su <user> [password]` — switch the session's user by launching a child
/// shell as `user`. Requires the `setUser` grant on *this* code source
/// (paper §5.2).
pub fn su_main(args: Vec<String>) -> Result<()> {
    let name = args.first().cloned().ok_or_else(|| VmError::Io {
        message: "su: usage: su <user> [password]".into(),
    })?;
    let password = match args.get(1) {
        Some(p) => p.clone(),
        None => {
            let stdin = jsystem::stdin().map_err(io_err)?;
            match crate::terminal::Terminal::from_stdin(&stdin) {
                Some(term) => term.read_secret("Password: ")?.unwrap_or_default(),
                None => stdin.read_line()?.unwrap_or_default(),
            }
        }
    };
    match login::login(&name, &password) {
        Ok(user) => {
            // Like Unix su: run a child shell as the new user (the child
            // inherits this application's re-bound user) and wait for it.
            jsystem::println(&format!("now running as {}", user.name())).map_err(io_err)?;
            run_session()
        }
        Err(e) => jsystem::eprintln(&format!("su: {e}")).map_err(io_err),
    }
}

/// `passwd <user> <old> <new>`.
pub fn passwd_main(args: Vec<String>) -> Result<()> {
    let (user, old, new) = match (args.first(), args.get(1), args.get(2)) {
        (Some(u), Some(o), Some(n)) => (u.clone(), o.clone(), n.clone()),
        _ => {
            return jsystem::eprintln("passwd: usage: passwd <user> <old> <new>").map_err(io_err);
        }
    };
    match login::change_password(&user, &old, &new) {
        Ok(()) => jsystem::println("password changed").map_err(io_err),
        Err(e) => jsystem::eprintln(&format!("passwd: {e}")).map_err(io_err),
    }
}

/// `env` — print the application's per-app properties (its environment,
/// inherited from the parent at exec — paper §5.1).
pub fn env_main(_args: Vec<String>) -> Result<()> {
    let app = Application::current().ok_or_else(|| VmError::illegal_state("no app"))?;
    for (key, value) in app.properties().snapshot() {
        jsystem::println(&format!("{key}={value}")).map_err(io_err)?;
    }
    Ok(())
}

/// `chmod <octal> <path ...>` — change mode bits through the O/S layer (the
/// acting user must own the file).
pub fn chmod_main(args: Vec<String>) -> Result<()> {
    let Some(mode_text) = args.first() else {
        return jsystem::eprintln("chmod: usage: chmod <octal> <path ...>").map_err(io_err);
    };
    let Ok(octal) = u16::from_str_radix(mode_text, 8) else {
        return jsystem::eprintln("chmod: bad mode (use octal like 600)").map_err(io_err);
    };
    let rt = MpRuntime::current().ok_or_else(|| VmError::illegal_state("no runtime"))?;
    let app = Application::current().ok_or_else(|| VmError::illegal_state("no app"))?;
    for path in &args[1..] {
        let absolute = jmp_vfs::join(&app.cwd(), path);
        if let Err(e) = rt
            .vfs()
            .chmod(&absolute, jmp_vfs::Mode::from_octal(octal), app.user().id())
        {
            jsystem::eprintln(&format!("chmod: {e}")).map_err(io_err)?;
        }
    }
    Ok(())
}

/// `chown <user> <path ...>` — give a file away (owner or superuser only).
pub fn chown_main(args: Vec<String>) -> Result<()> {
    let Some(target_user) = args.first() else {
        return jsystem::eprintln("chown: usage: chown <user> <path ...>").map_err(io_err);
    };
    let rt = MpRuntime::current().ok_or_else(|| VmError::illegal_state("no runtime"))?;
    let app = Application::current().ok_or_else(|| VmError::illegal_state("no app"))?;
    let new_owner = match rt.users().lookup(target_user) {
        Ok(user) => user.id(),
        Err(e) => return jsystem::eprintln(&format!("chown: {e}")).map_err(io_err),
    };
    for path in &args[1..] {
        let absolute = jmp_vfs::join(&app.cwd(), path);
        if let Err(e) = rt.vfs().chown(&absolute, new_owner, app.user().id()) {
            jsystem::eprintln(&format!("chown: {e}")).map_err(io_err)?;
        }
    }
    Ok(())
}

/// `hostname` — print the VM's name (the "machine" every application
/// shares).
pub fn hostname_main(_args: Vec<String>) -> Result<()> {
    let rt = MpRuntime::current().ok_or_else(|| VmError::illegal_state("no runtime"))?;
    jsystem::println(rt.vm().name()).map_err(io_err)
}

/// `login` — the paper's §5.2 login program: authenticates on the terminal
/// (echo off for the password), re-binds the application's user, then runs a
/// shell and waits for it. Loops until a login succeeds or input ends.
/// Non-interactively (no terminal), `login <user> <password>` logs in once
/// and runs the shell.
pub fn login_main(args: Vec<String>) -> Result<()> {
    let stdin = jsystem::stdin().map_err(io_err)?;
    let terminal = crate::terminal::Terminal::from_stdin(&stdin);
    if let (Some(user), Some(password)) = (args.first(), args.get(1)) {
        match login::login(user, password) {
            Ok(_) => return run_session(),
            Err(e) => {
                return jsystem::eprintln(&format!("login: {e}")).map_err(io_err);
            }
        }
    }
    let Some(terminal) = terminal else {
        return jsystem::eprintln("login: no terminal and no credentials").map_err(io_err);
    };
    loop {
        let Some(user) = terminal.read_string("login: ")? else {
            return Ok(());
        };
        if user.is_empty() {
            continue;
        }
        let Some(password) = terminal.read_secret("Password: ")? else {
            return Ok(());
        };
        match login::login(&user, &password) {
            Ok(account) => {
                terminal.write_screen(format!("Welcome, {}.\n", account.name()).as_bytes())?;
                run_session()?;
                // Session ended: back to the login prompt (paper §2's
                // "switch to a different user" without rebooting).
                terminal.write_screen(b"logged out\n")?;
            }
            Err(e) => {
                terminal.write_screen(format!("{e}\n").as_bytes())?;
            }
        }
    }
}

fn run_session() -> Result<()> {
    let shell = Application::exec("shell", &[]).map_err(io_err)?;
    shell.wait_for().map_err(io_err)?;
    Ok(())
}
