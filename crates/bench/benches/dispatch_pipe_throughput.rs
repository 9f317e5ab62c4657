//! A6: the data-plane primitives in isolation — ring-pipe copies (aligned
//! and seam-straddling), the event queue's batched+coalescing path against
//! the one-lock-per-event path it replaced, and the `wc` and `grep` byte
//! kernels over a bulk text block.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use jmp_awt::{Event, EventKind, EventQueue, WindowId};
use jmp_shell::utils::{grep_lines, wc_counts};
use jmp_vm::io::pipe;

const CHUNK: usize = 4 * 1024;
const BATCH: usize = 64;

/// One 4 KiB chunk through the ring per iteration, drained immediately so
/// the writer never blocks. The aligned capacity never straddles the seam;
/// the odd capacity straddles it on most iterations, exercising the
/// two-`copy_from_slice` path.
fn bench_pipe(c: &mut Criterion) {
    let chunk = vec![0x5au8; CHUNK];
    let mut buf = vec![0u8; CHUNK];
    let mut group = c.benchmark_group("A6/pipe");
    group.throughput(Throughput::Bytes(CHUNK as u64));

    let (writer, reader) = pipe(4 * CHUNK);
    group.bench_function("write_read_4k_aligned", |b| {
        b.iter(|| {
            writer.write(&chunk).expect("write");
            reader.read(&mut buf).expect("read")
        });
    });

    let (writer, reader) = pipe(CHUNK + 512);
    group.bench_function("write_read_4k_seam", |b| {
        b.iter(|| {
            writer.write(&chunk).expect("write");
            reader.read(&mut buf).expect("read")
        });
    });
    group.finish();
}

fn paints(n: usize) -> Vec<Event> {
    (0..n)
        .map(|_| Event::new(WindowId(1), None, EventKind::Paint))
        .collect()
}

fn actions(n: usize) -> Vec<Event> {
    (0..n)
        .map(|_| Event::new(WindowId(1), None, EventKind::Action))
        .collect()
}

/// A 64-event burst through the queue per iteration: batched coalescible
/// paints (collapse to one delivery), batched non-coalescible actions (the
/// pure lock-amortisation win), and the one-lock-per-event path.
fn bench_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("A6/events");
    group.throughput(Throughput::Elements(BATCH as u64));

    let queue = EventQueue::new();
    let q = queue.clone();
    group.bench_function("push_batch_64_paints_coalesced", |b| {
        b.iter_batched(
            || paints(BATCH),
            |events| {
                q.push_batch(events);
                q.drain(BATCH).expect("drain")
            },
            BatchSize::SmallInput,
        );
    });

    let queue = EventQueue::new();
    let q = queue.clone();
    group.bench_function("push_batch_64_actions", |b| {
        b.iter_batched(
            || actions(BATCH),
            |events| {
                q.push_batch(events);
                q.drain(BATCH).expect("drain")
            },
            BatchSize::SmallInput,
        );
    });

    let queue = EventQueue::new();
    let q = queue.clone();
    group.bench_function("per_event_64_actions", |b| {
        b.iter_batched(
            || actions(BATCH),
            |events| {
                for event in events {
                    q.push(event);
                }
                for _ in 0..BATCH {
                    q.try_pop();
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// Bytes in the utilities' input block: the size of jmpbench's `pipe_bulk`
/// file.
const TEXT_BYTES: usize = 384 * 1024;

/// Seeded ASCII lines of 3..=8 words; about half hold the `x` that `grep`
/// looks for, as in `pipe_bulk`.
fn word_lines(bytes: usize) -> Vec<u8> {
    const WORDS: [&str; 12] = [
        "alpha", "box", "cedar", "delta", "lynx", "maple", "oxide", "pine", "quartz", "sixty",
        "tundra", "wax",
    ];
    let mut state = 0x5eed_u64;
    let mut next = |n: u64| {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n) as usize
    };
    let mut text = Vec::with_capacity(bytes + 64);
    while text.len() < bytes {
        let words: Vec<&str> = (0..3 + next(6)).map(|_| WORDS[next(12)]).collect();
        let mut line = words.join(" ");
        if next(2) == 0 {
            line = line.replace('x', "k");
        }
        text.extend_from_slice(line.as_bytes());
        text.push(b'\n');
    }
    text
}

/// `wc`'s and `grep x`'s kernels over one 384 KiB block per iteration.
fn bench_utils(c: &mut Criterion) {
    let text = word_lines(TEXT_BYTES);
    let mut group = c.benchmark_group("A6/utils");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("wc_384k", |b| b.iter(|| wc_counts(&text)));
    let mut out = Vec::with_capacity(text.len());
    group.bench_function("grep_x_384k", |b| {
        b.iter(|| {
            out.clear();
            grep_lines(&text, "x", &mut out);
            out.len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_pipe, bench_events, bench_utils);
criterion_main!(benches);
