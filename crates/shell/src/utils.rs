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

use std::borrow::Cow;

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
        let mut buf = vec![0u8; FIRST_READ];
        loop {
            let n = input.read(&mut buf)?;
            if n == 0 {
                return Ok(());
            }
            out.write(&buf[..n])?;
            if n == buf.len() && n < DEFAULT_PIPE_CAPACITY {
                buf.resize(2 * n, 0);
            }
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

/// The size of a utility's first stdin read. A read that fills the buffer
/// doubles it, up to [`DEFAULT_PIPE_CAPACITY`], so a one-line input never
/// allocates a pipe's worth and a bulk input reaches pipe-sized reads after
/// a few calls.
const FIRST_READ: usize = 1024;

/// Reads the current application's stdin to end-of-file and hands `block`
/// runs of whole lines: every block but the last ends just after a `\n`,
/// and the unfinished last line of one read is carried over to the next.
/// The tail left at end-of-file is the final block. A byte is copied once,
/// from the device into the buffer `block` sees; only a carried partial
/// line moves again, to the front.
///
/// Lossy UTF-8 decoding, `lines()` and `split_whitespace()` never span a
/// `\n`, so per-block results add up to the whole-input results exactly,
/// while a pipeline's stages overlap instead of each buffering its whole
/// input first.
fn for_each_line_block(mut block: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
    let input = jsystem::stdin().map_err(io_err)?;
    // `buf[..filled]` holds the carried partial line; reads land after it.
    let mut buf = vec![0u8; FIRST_READ];
    let mut filled = 0;
    loop {
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
        let full = filled == buf.len();
        if let Some(last_newline) = buf[start..filled].iter().rposition(|&b| b == b'\n') {
            let end = start + last_newline + 1;
            block(&buf[..end])?;
            buf.copy_within(end..filled, 0);
            filled -= end;
        }
        // Grow after a read that filled the buffer: below a pipe's worth,
        // or past it while one line fills the whole buffer.
        if full && (buf.len() < DEFAULT_PIPE_CAPACITY || filled == buf.len()) {
            buf.resize(2 * buf.len(), 0);
        }
    }
}

/// `char::is_whitespace` on an ASCII byte: tab, LF, VT, FF, CR and space.
fn is_space(b: u8) -> bool {
    (b == b' ') | (b.wrapping_sub(b'\t') < 5)
}

/// The lines and words in `data`: exactly `lines().count()` and
/// `split_whitespace().count()` of `String::from_utf8_lossy(data)`.
///
/// ASCII input is counted over raw bytes. A word starts at each non-space
/// byte that follows a space byte (or starts the input), and a last line
/// without a `\n` counts as a line. The scan runs in 255-byte chunks with
/// `u8` accumulators, so LLVM turns it into vector code. Input with a byte
/// of 0x80 or above is counted by decoding it instead, since
/// `split_whitespace` also splits at non-ASCII spaces.
pub fn wc_counts(data: &[u8]) -> (usize, usize) {
    let Some(&first) = data.first() else {
        return (0, 0);
    };
    let mut newlines = usize::from(first == b'\n');
    let mut words = usize::from(!is_space(first));
    let mut high = first;
    for (prev, next) in data.chunks(255).zip(data[1..].chunks(255)) {
        let (mut nl, mut starts, mut or) = (0u8, 0u8, 0u8);
        for (&a, &b) in prev.iter().zip(next) {
            nl += u8::from(b == b'\n');
            starts += u8::from(is_space(a) & !is_space(b));
            or |= b;
        }
        newlines += usize::from(nl);
        words += usize::from(starts);
        high |= or;
    }
    if high.is_ascii() {
        (newlines + usize::from(!data.ends_with(b"\n")), words)
    } else {
        let text = decode(data);
        (text.lines().count(), text.split_whitespace().count())
    }
}

/// `String::from_utf8_lossy(data)`, but valid input is checked with
/// `str::from_utf8`, which skips ASCII runs a word at a time where the
/// lossy decoder steps through every byte.
fn decode(data: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(data) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(data),
    }
}

/// `wc [file]` — count lines, words, bytes. Stdin is counted block by block
/// as it arrives; the byte count is raw bytes.
pub fn wc_main(args: Vec<String>) -> Result<()> {
    let (mut lines, mut words, mut bytes) = (0, 0, 0);
    let mut count = |data: &[u8]| {
        let (l, w) = wc_counts(data);
        lines += l;
        words += w;
        bytes += data.len();
        Ok(())
    };
    match args.first() {
        Some(path) => count(&files::read(path).map_err(io_err)?)?,
        None => for_each_line_block(count)?,
    }
    jsystem::println(&format!("{lines} {words} {bytes}")).map_err(io_err)
}

/// Starts screened per step of the `grep` scan: one bit each of a `u64`.
const WINDOW: usize = 64;

/// Bit `i` is set where `heads[i] == first` and `tails[i] == last`, for
/// `i` in `0..WINDOW`. The compare loop writes one flag byte per start,
/// which LLVM turns into vector compares; a multiply then packs each eight
/// flags (0 or 1) into eight bits.
fn window_mask(heads: &[u8], tails: &[u8], first: u8, last: u8) -> u64 {
    let mut flags = [0u8; WINDOW];
    for ((flag, &a), &b) in flags.iter_mut().zip(&heads[..WINDOW]).zip(&tails[..WINDOW]) {
        *flag = u8::from(a == first) & u8::from(b == last);
    }
    flags.chunks_exact(8).rev().fold(0, |mask, eight| {
        let word = u64::from_le_bytes(eight.try_into().expect("eight flags"));
        mask << 8 | word.wrapping_mul(0x0102_0408_1020_4080) >> 56
    })
}

/// The first start at or after `from` where `bytes` has `pattern`'s first
/// and last byte in place: every match starts at such a candidate. The
/// empty pattern matches at `from` itself.
fn next_candidate(bytes: &[u8], pattern: &[u8], mut from: usize) -> Option<usize> {
    let (Some(&first), Some(&last)) = (pattern.first(), pattern.last()) else {
        return Some(from);
    };
    let span = pattern.len() - 1;
    while from + WINDOW + span <= bytes.len() {
        let mask = window_mask(&bytes[from..], &bytes[from + span..], first, last);
        if mask != 0 {
            return Some(from + mask.trailing_zeros() as usize);
        }
        from += WINDOW;
    }
    (from..bytes.len().saturating_sub(span)).find(|&i| bytes[i] == first && bytes[i + span] == last)
}

/// Appends to `out` each line of `data` that contains `pattern`, each with
/// a `\n` after it: byte for byte the lines of
/// `String::from_utf8_lossy(data).lines()` that `contains(pattern)`.
///
/// Rather than split every line and test it, the scan screens the block
/// for candidates, [`WINDOW`] starts at a time, and widens each one to its
/// line; lines with no candidate hold no match and are never looked at.
/// From its first candidate on, a line is searched once with
/// `str::contains`, and the scan goes on after that line. It follows the
/// `lines()` rules: a `\r` is stripped only before a `\n`, so a match that
/// runs into that `\r` is not in the line; the end of `data` closes a last
/// line but adds no empty one; the empty pattern matches every line.
pub fn grep_lines(data: &[u8], pattern: &str, out: &mut Vec<u8>) {
    if pattern.contains('\n') {
        return; // no line holds a `\n`
    }
    let text = decode(data);
    let bytes = text.as_bytes();
    // `pos` is always a line start, and every line before it is done.
    let mut pos = 0;
    while pos < text.len() {
        let Some(hit) = next_candidate(bytes, pattern.as_bytes(), pos) else {
            return;
        };
        let before = bytes[pos..hit].iter().rposition(|&b| b == b'\n');
        let start = before.map_or(pos, |i| pos + i + 1);
        let newline = bytes[hit..].iter().position(|&b| b == b'\n');
        let (end, next) = match newline.map(|i| hit + i) {
            Some(nl) if nl > start && bytes[nl - 1] == b'\r' => (nl - 1, nl + 1),
            Some(nl) => (nl, nl + 1),
            None => (text.len(), text.len()),
        };
        // A candidate is never a `\n`, so `hit <= end`; and it starts a
        // character, since a pattern's first byte never continues one.
        if text[hit..end].contains(pattern) {
            out.extend_from_slice(&bytes[start..end]);
            out.push(b'\n');
        }
        pos = next;
    }
}

/// `grep pattern [file]` — print lines containing `pattern` (substring).
/// Stdin is scanned block by block as it arrives, and each block's matches
/// go to stdout in one write.
pub fn grep_main(args: Vec<String>) -> Result<()> {
    let pattern = args.first().cloned().ok_or_else(|| VmError::Io {
        message: "grep: missing pattern".into(),
    })?;
    let out = jsystem::stdout().map_err(io_err)?;
    let mut matches = Vec::new();
    let mut scan = |data: &[u8]| {
        grep_lines(data, &pattern, &mut matches);
        if matches.is_empty() {
            return Ok(());
        }
        let written = out.write(&matches);
        matches.clear();
        written
    };
    match args.get(1) {
        Some(path) => scan(&files::read(path).map_err(io_err)?),
        None => for_each_line_block(scan),
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

#[cfg(test)]
mod tests {
    use super::{grep_lines, wc_counts};

    /// SplitMix64: a seeded, dependency-free generator for the inputs.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// Up to `max` pieces drawn from `alphabet`, concatenated.
        fn text(&mut self, alphabet: &[&str], max: usize) -> String {
            (0..self.below(max + 1))
                .map(|_| alphabet[self.below(alphabet.len())])
                .collect()
        }
    }

    fn grep_reference(data: &[u8], pattern: &str) -> Vec<u8> {
        String::from_utf8_lossy(data)
            .lines()
            .filter(|line| line.contains(pattern))
            .flat_map(|line| [line.as_bytes(), b"\n"].concat())
            .collect()
    }

    fn wc_reference(data: &[u8]) -> (usize, usize) {
        let text = String::from_utf8_lossy(data);
        (text.lines().count(), text.split_whitespace().count())
    }

    #[test]
    fn grep_block_scan_matches_lines_filter_contains() {
        let alphabet = [
            "a", "b", "ab", " ", "\r", "\n", "\r\n", "\t", "é", "\u{3000}", "aé",
        ];
        let mut g = Gen(0x6e_e9);
        let mut cases: Vec<Vec<u8>> = ["", "\n", "\r", "a\r", "a\r\n", "\n\n", "a\n\r\r\n"]
            .iter()
            .map(|t| t.as_bytes().to_vec())
            .collect();
        for max in [80, 600] {
            for _ in 0..200 {
                cases.push(g.text(&alphabet, max).into_bytes());
            }
        }
        // Invalid UTF-8 decodes to U+FFFD, which a pattern can then match.
        cases.push(b"a\xff\nb\xe3\x80\n\xef\xbf\xbd\n".to_vec());
        // A candidate's first and last byte can match around a middle that
        // does not (`aba`, `ab a`), and a pattern can span several windows.
        let long = "a".repeat(70) + "b";
        let patterns = [
            "",
            "\r",
            "a\r",
            " ",
            "aba",
            "ab a",
            "é",
            "\u{3000}b",
            "\u{fffd}",
            "\r\n",
            &long,
        ];
        cases.push(format!("{long}\n{}\r\n{long}\r", "a".repeat(140)).into_bytes());
        let mut out = Vec::new();
        for data in &cases {
            for pattern in patterns {
                out.clear();
                grep_lines(data, pattern, &mut out);
                assert_eq!(
                    out,
                    grep_reference(data, pattern),
                    "pattern {pattern:?} over {:?}",
                    String::from_utf8_lossy(data)
                );
            }
        }
    }

    #[test]
    fn wc_kernel_matches_the_decoding_formula() {
        // ASCII separators (VT and FF included), bytes `split_whitespace`
        // does not split at (0x1c..=0x1f), and some non-ASCII for the
        // fallback; inputs run past several 255-byte chunks.
        let alphabet = [
            "a", "bc", " ", "  ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f",
        ];
        let mut g = Gen(0x77_c0);
        let mut cases: Vec<Vec<u8>> = vec![Vec::new(), b"\n".to_vec(), b"\r".to_vec()];
        for _ in 0..300 {
            cases.push(g.text(&alphabet, 400).into_bytes());
        }
        for pad in [253, 254, 255, 256] {
            // A word straddling the first chunk edge, then a separator run.
            let mut data = vec![b' '; pad];
            data.extend_from_slice(b"word\x0b\x0c \r\nx");
            cases.push(data);
        }
        cases.push("a\u{a0}b\u{3000}c\n".as_bytes().to_vec());
        cases.push(b"a \xff b\n".to_vec());
        for data in &cases {
            assert_eq!(
                wc_counts(data),
                wc_reference(data),
                "{:?}",
                String::from_utf8_lossy(data)
            );
        }
    }
}
