//! Building a runtime the way a deployment would: the shell's default
//! policy, a user population whose grants come from a `TemplateGrantSource`
//! behind a `LazyUserStore`, the §6 tools and the simulated network.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use jmp_awt::DispatchMode;
use jmp_core::{Application, MpRuntime};
use jmp_security::{
    CodeSource, FileActions, LazyUserStore, Permission, Policy, TemplateGrantSource,
};
use jmp_vm::ClassDef;

/// Simulated host the applets are published on.
pub const ORIGIN: &str = "applets.bench";

/// Account names are `u0..u{n-1}`; the template source provisions exactly
/// these.
pub fn user_name(i: usize) -> String {
    format!("u{i}")
}

pub fn password(user: &str) -> String {
    format!("pw-{user}")
}

const USER_TEMPLATE: &str = r#"
    grant user "${user}" {
        permission file "/home/${user}" "read";
        permission file "/home/${user}/-" "read,write,execute,delete";
    };
"#;

/// Grants on top of the shell's default policy: applets from the origin
/// may read the one property the native-loop applet asks for, and the
/// `probe` class may reload the policy to measure a cold check.
const BENCH_POLICY: &str = r#"
    grant codeBase "http://applets.bench/-" {
        permission property "bench.origin" "read";
    };
    grant codeBase "file:/apps/probe" {
        permission runtime "setPolicy";
    };
"#;

/// A bootstrapped runtime with `users` accounts and their homes, the shell
/// tools and the simulated network.
pub fn runtime(name: &str, users: usize, gui: bool) -> MpRuntime {
    let text = format!("{}{BENCH_POLICY}", jmp_shell::default_policy_text());
    let policy = Policy::parse(&text).expect("the benchmark policy parses");
    let mut builder = MpRuntime::builder().vm_name(name).policy(policy.clone());
    for i in 0..users {
        let user = user_name(i);
        builder = builder.user(&user, &password(&user));
    }
    if gui {
        builder = builder.gui(DispatchMode::PerApplication);
    }
    let rt = builder.build().expect("the runtime bootstraps");
    jmp_shell::install(&rt).expect("the shell tools install once");
    let store = LazyUserStore::new(Arc::new(TemplateGrantSource::new(
        "u",
        users as u64,
        USER_TEMPLATE,
    )));
    rt.vm()
        .set_policy(policy.with_user_store(Arc::new(store)))
        .expect("the host may set the policy");
    rt.vm().properties().set("bench.origin", ORIGIN);
    rt
}

/// Reloads the current policy unchanged, the way an administrator's
/// policy write does: the user store and the decision cache go cold.
pub fn reload_policy(rt: &MpRuntime) -> Result<(), String> {
    let policy = (*rt.vm().policy()).clone();
    rt.vm().set_policy(policy).map_err(|e| e.to_string())
}

/// Medians of `Vm::check_permission` from an application thread, in ns:
/// the first check after a policy reload (cold) and checks once the
/// decision cache holds the answer (warm).
pub struct CheckCost {
    pub warm_ns: f64,
    pub cold_ns: f64,
}

const PROBE_ROUNDS: usize = 200;
const PROBE_WARM_BATCH: u32 = 64;

fn measure_checks() -> Result<CheckCost, String> {
    let rt = MpRuntime::current().ok_or("the probe runs in a runtime")?;
    let app = Application::current().ok_or("the probe runs as an application")?;
    let demand = Permission::file(format!("{}/notes", app.user().home()), FileActions::READ);
    let vm = rt.vm();
    let mut cold = Vec::with_capacity(PROBE_ROUNDS);
    let mut warm = Vec::with_capacity(PROBE_ROUNDS);
    for _ in 0..PROBE_ROUNDS {
        reload_policy(&rt)?;
        let t = Instant::now();
        vm.check_permission(&demand).map_err(|e| e.to_string())?;
        cold.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        for _ in 0..PROBE_WARM_BATCH {
            vm.check_permission(std::hint::black_box(&demand))
                .map_err(|e| e.to_string())?;
        }
        warm.push(t.elapsed().as_nanos() as f64 / f64::from(PROBE_WARM_BATCH));
    }
    Ok(CheckCost {
        warm_ns: crate::stats::median(&warm),
        cold_ns: crate::stats::median(&cold),
    })
}

/// Measures [`CheckCost`] from a `probe` application running as `u0`, so
/// the checks see a real application stack and running user.
pub fn check_cost(rt: &MpRuntime) -> Result<CheckCost, String> {
    let (tx, rx) = mpsc::channel();
    let tx = std::sync::Mutex::new(tx);
    rt.vm().material().register_replacing(
        ClassDef::builder("probe")
            .main(move |_args| {
                let report = measure_checks();
                let _ = tx
                    .lock()
                    .expect("probe mutex is never poisoned")
                    .send(report);
                Ok(())
            })
            .build(),
        CodeSource::local("file:/apps/probe"),
    );
    let app = rt
        .launch_as(&user_name(0), "probe", &[])
        .map_err(|e| e.to_string())?;
    let cost = rx.recv().map_err(|e| e.to_string())?;
    app.wait_for().map_err(|e| e.to_string())?;
    cost
}
