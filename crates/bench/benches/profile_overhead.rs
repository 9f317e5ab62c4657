//! A8: profiler overhead — the interpreter's per-opcode accounting on vs
//! off (and vs no profiler attached at all) on the hot dispatch loop. The
//! budget CI gates on is ≤5% slowdown with accounting enabled; with it
//! disabled the cost is a safepoint-cadence atomic load (~0%). A second
//! group runs call-heavy `fib` with stack sampling off vs on, where every
//! interpreted call and return publishes one frame transition (E16d).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use jmp_obs::Profiler;
use jmp_vm::interp::{assemble, Interpreter, NoNatives, Value};

const SUM_LOOP: &str = r#"
    class Sum
    method main/1 locals=2
        push_int 0
        store 1
    loop:
        load 0
        push_int 0
        gt
        jump_if_false done
        load 1
        load 0
        add
        store 1
        load 0
        push_int 1
        sub
        store 0
        jump loop
    done:
        load 1
        return_value
"#;

const N: i64 = 10_000;

const FIB: &str = r#"
    class Fib
    method main/1 locals=1
        load 0
        call fib/1
        return_value
    method fib/1 locals=1
        load 0
        push_int 2
        lt
        jump_if_false rec
        load 0
        return_value
    rec:
        load 0
        push_int 1
        sub
        call fib/1
        load 0
        push_int 2
        sub
        call fib/1
        add
        return_value
"#;

/// 2,584 `fib` calls per run.
const FIB_N: i64 = 16;

fn bench_profile_overhead(c: &mut Criterion) {
    let image = Arc::new(assemble(SUM_LOOP).unwrap());
    let mut group = c.benchmark_group("A8/profile_overhead");

    let bare = Interpreter::new(Arc::clone(&image), Arc::new(NoNatives)).unwrap();
    group.bench_function("no_profiler", |b| {
        b.iter(|| bare.run("main", vec![Value::Int(N)]).unwrap());
    });

    let off_profiler = Profiler::new();
    off_profiler.set_enabled(false);
    let off = Interpreter::new(Arc::clone(&image), Arc::new(NoNatives))
        .unwrap()
        .with_profiler(off_profiler);
    group.bench_function("accounting_off", |b| {
        b.iter(|| off.run("main", vec![Value::Int(N)]).unwrap());
    });

    // Sampling off isolates the accounting cost: the tally increment per
    // instruction plus one flush per 1024-instruction safepoint.
    let on_profiler = Profiler::new();
    on_profiler.set_sampling(false);
    let on = Interpreter::new(Arc::clone(&image), Arc::new(NoNatives))
        .unwrap()
        .with_profiler(on_profiler);
    group.bench_function("accounting_on", |b| {
        b.iter(|| on.run("main", vec![Value::Int(N)]).unwrap());
    });

    group.finish();
}

fn bench_sampling_overhead(c: &mut Criterion) {
    let image = Arc::new(assemble(FIB).unwrap());
    let mut group = c.benchmark_group("A8/sampling_overhead");
    for (name, sampling) in [("fib_sampling_off", false), ("fib_sampling_on", true)] {
        let profiler = Profiler::new();
        profiler.set_sampling(sampling);
        let interp = Interpreter::new(Arc::clone(&image), Arc::new(NoNatives))
            .unwrap()
            .with_profiler(profiler);
        group.bench_function(name, |b| {
            b.iter(|| interp.run("main", vec![Value::Int(FIB_N)]).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_profile_overhead, bench_sampling_overhead);
criterion_main!(benches);
