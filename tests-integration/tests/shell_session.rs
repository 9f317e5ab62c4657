//! E9 (§6.1/§6.2) integration: session flows beyond the shell crate's own
//! tests — re-login on one terminal, shells launching shells, interactive
//! stdin through pipelines.

use jmp_shell::spawn_login_session;
use tests_integration::runtime;

#[test]
fn one_terminal_serves_successive_users() {
    // §2's multi-user promise: "to switch to a different user, the previous
    // user must be logged off and sometimes the machine has to be rebooted"
    // — not here: log out, log in as someone else, no reboot.
    let rt = runtime();
    let (terminal, session) = spawn_login_session(&rt).unwrap();
    for line in [
        "alice",
        "apw",
        "whoami",
        "echo alice-was-here > trace.txt",
        "logout",
        "bob",
        "bpw",
        "whoami",
        "quit",
    ] {
        terminal.type_line(line).unwrap();
    }
    terminal.type_eof();
    session.wait_for().unwrap();
    let screen = terminal.screen_text();
    assert!(screen.contains("\nalice\n"));
    assert!(screen.contains("logged out"));
    assert!(screen.contains("\nbob\n"));
    // Each user's file ended up in their own home with their ownership.
    let alice = rt.users().lookup("alice").unwrap();
    assert!(rt.vfs().exists("/home/alice/trace.txt", alice.id()));
    rt.shutdown();
}

#[test]
fn shell_can_launch_a_nested_shell() {
    let rt = runtime();
    let (terminal, session) = spawn_login_session(&rt).unwrap();
    for line in [
        "alice",
        "apw",
        "shell",      // nested shell, same streams
        "echo inner", // runs in the nested shell
        "quit",       // ends the nested shell
        "echo outer", // back in the outer shell
        "quit",
    ] {
        terminal.type_line(line).unwrap();
    }
    terminal.type_eof();
    session.wait_for().unwrap();
    let screen = terminal.screen_text();
    assert!(screen.contains("\ninner\n"));
    assert!(screen.contains("\nouter\n"));
    rt.shutdown();
}

#[test]
fn cat_copies_terminal_input_into_a_redirected_file() {
    // `cat > file`: interactive stdin flows through the application into a
    // redirected stream; EOF comes from the terminal.
    let rt = runtime();
    let (terminal, session) = spawn_login_session(&rt).unwrap();
    for line in ["alice", "apw", "cat > dictation.txt"] {
        terminal.type_line(line).unwrap();
    }
    // These lines are consumed by `cat`, not the shell.
    terminal.type_line("first dictated line").unwrap();
    terminal.type_line("second dictated line").unwrap();
    terminal.type_eof(); // EOF: cat finishes, then the shell sees EOF too
    session.wait_for().unwrap();
    let alice = rt.users().lookup("alice").unwrap();
    let contents = rt
        .vfs()
        .read("/home/alice/dictation.txt", alice.id())
        .unwrap();
    let text = String::from_utf8_lossy(&contents);
    assert!(text.contains("first dictated line"));
    assert!(text.contains("second dictated line"));
    rt.shutdown();
}

#[test]
fn concurrent_shells_do_not_share_cwd() {
    // Per-application state: each session has its own current directory
    // (paper §5.1 lists cwd as application state).
    let rt = runtime();
    let (term_a, sess_a) = spawn_login_session(&rt).unwrap();
    let (term_b, sess_b) = spawn_login_session(&rt).unwrap();
    term_a.type_line("alice").unwrap();
    term_a.type_line("apw").unwrap();
    term_b.type_line("bob").unwrap();
    term_b.type_line("bpw").unwrap();
    term_a.type_line("mkdir deep").unwrap();
    term_a.type_line("cd deep").unwrap();
    term_a.type_line("pwd").unwrap();
    term_b.type_line("pwd").unwrap();
    for t in [&term_a, &term_b] {
        t.type_line("quit").unwrap();
        t.type_eof();
    }
    sess_a.wait_for().unwrap();
    sess_b.wait_for().unwrap();
    assert!(term_a.screen_text().contains("/home/alice/deep"));
    assert!(term_b.screen_text().contains("\n/home/bob\n"));
    assert!(!term_b.screen_text().contains("deep"));
    rt.shutdown();
}

#[test]
fn error_in_one_command_does_not_kill_the_session() {
    let rt = runtime();
    let (terminal, session) = spawn_login_session(&rt).unwrap();
    for line in [
        "alice",
        "apw",
        "cat /no/such/file", // error from an app
        "ls | | wc",         // parse error in the shell
        "echo recovered",    // the session goes on
        "quit",
    ] {
        terminal.type_line(line).unwrap();
    }
    terminal.type_eof();
    session.wait_for().unwrap();
    let screen = terminal.screen_text();
    assert!(screen.contains("cat: "));
    assert!(screen.contains("syntax error"));
    assert!(screen.contains("\nrecovered\n"));
    rt.shutdown();
}

#[test]
fn a_long_lived_shell_lets_go_of_its_pipes_and_redirects() {
    // The shell owns the pipes and redirect files it creates for a command.
    // Once the command is done it must close them *and* stop owning them;
    // otherwise every pipeline leaves two handles and a 64 KiB pipe ring on
    // the shell until the session ends.
    use jmp_vm::io::{pipe, InStream, IoToken, OutStream, DEFAULT_PIPE_CAPACITY};
    use jmp_vm::ResourceKind;

    let rt = runtime();
    let alice = rt.users().lookup("alice").unwrap();
    rt.vfs()
        .write("/home/alice/f", b"kx one\nno\nkx two\n", alice.id())
        .unwrap();
    let (in_w, in_r) = pipe(DEFAULT_PIPE_CAPACITY);
    let (out_w, out_r) = pipe(DEFAULT_PIPE_CAPACITY);
    let out = OutStream::from_pipe(out_w, IoToken::SYSTEM);
    let login = rt
        .launch_with(
            "system",
            "login",
            &["alice", "apw"],
            Some(InStream::from_pipe(in_r, IoToken::SYSTEM)),
            Some(out.clone()),
            Some(out),
        )
        .unwrap();
    let commands =
        "cat f | grep kx | wc\nwc < f\ngrep kx < f > o\ncat f | grep kx | wc > o\necho sync\n";
    for _ in 0..4 {
        in_w.write_all(commands.as_bytes()).unwrap();
    }
    // Commands run one at a time, so the last `sync` means every earlier
    // command has finished and been cleaned up after.
    let output = InStream::from_pipe(out_r, IoToken::SYSTEM);
    let mut syncs = 0;
    while syncs < 4 {
        let line = output.read_line().unwrap().expect("the session is open");
        if line == "sync" {
            syncs += 1;
        } else {
            assert!(line == "2 4 14" || line == "3 5 17", "unexpected {line:?}");
        }
    }
    let shell = rt
        .applications()
        .into_iter()
        .find(|app| app.name() == "shell")
        .expect("the session's shell is running");
    assert_eq!(shell.owned_stream_count(), 0);
    let ledger = shell.context().ledger();
    assert_eq!(ledger.get(ResourceKind::Handles), 0);
    assert!(
        ledger.get(ResourceKind::Memory) < DEFAULT_PIPE_CAPACITY as u64,
        "no pipe ring is still charged to the shell: {ledger:?}"
    );
    in_w.write_all(b"quit\n").unwrap();
    in_w.close();
    assert_eq!(login.wait_for().unwrap(), 0);
    rt.shutdown();
}
