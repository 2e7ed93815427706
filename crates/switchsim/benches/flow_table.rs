//! Criterion benches for the `FlowTable` hot paths the packed-key match
//! index serves: insert, strict find, and wildcard lookup at 1k and 8k
//! resident entries, and the insert + strict-delete rotation the wire
//! benchmark streams, at 1k and 16k.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ofwire::action::Action;
use ofwire::flow_match::FlowMatch;
use simnet::time::SimTime;
use switchsim::entry::{EntryId, FlowEntry};
use switchsim::table::FlowTable;

fn entry(i: u64) -> FlowEntry {
    FlowEntry::new(
        EntryId(i),
        FlowMatch::l3_for_id(i as u32),
        (i % 64) as u16,
        vec![Action::output(1)],
        SimTime(i),
    )
}

fn filled(n: u64) -> FlowTable {
    let mut t = FlowTable::new();
    for i in 0..n {
        t.insert(entry(i));
    }
    t
}

fn bench_flow_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_table");
    g.sample_size(20);
    for n in [1_000u64, 8_000] {
        g.bench_function(format!("insert_{n}"), |b| {
            b.iter(|| {
                let t = filled(n);
                black_box(t.len())
            })
        });
        let table = filled(n);
        g.bench_function(format!("find_strict_{n}"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for i in 0..n {
                    let m = FlowMatch::l3_for_id(i as u32);
                    if table.find_strict(&m, (i % 64) as u16).is_some() {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
        g.bench_function(format!("lookup_{n}"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for i in (0..n).step_by(7) {
                    let key = FlowMatch::key_for_id(i as u32);
                    if table.lookup(&key).is_some() {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
    }
    for n in [1_000u64, 16_000] {
        // `wire_bulk`'s stream against `n` residents: install the next
        // id, strict-delete the oldest.
        let mut table = filled(n);
        let mut next = n;
        g.bench_function(format!("rotate_{n}"), |b| {
            b.iter(|| {
                for _ in 0..1024 {
                    table.insert(entry(next));
                    let oldest = next - n;
                    let m = FlowMatch::l3_for_id(oldest as u32);
                    black_box(table.remove_strict(&m, (oldest % 64) as u16));
                    next += 1;
                }
                table.len()
            })
        });
        assert_eq!(table.len() as u64, n, "every strict delete found its rule");
    }
    g.finish();
}

criterion_group!(benches, bench_flow_table);
criterion_main!(benches);
