//! Memory-substrate benchmarks: step cost, trim, extend (§4.5 bandwidths
//! are model parameters; these measure the simulator's own overhead).

use coach_node::memory::{MemoryServer, VmMemoryConfig};
use coach_types::VmId;
use criterion::{criterion_group, criterion_main, Criterion};

fn loaded_server(vms: u64) -> MemoryServer {
    let mut s = MemoryServer::new(512.0, 4.0);
    s.set_pool_backing(128.0).unwrap();
    for i in 0..vms {
        s.add_vm(VmId::new(i), VmMemoryConfig::split(8.0, 2.0))
            .unwrap();
        s.set_working_set(VmId::new(i), 5.0);
    }
    s
}

fn bench_memory(c: &mut Criterion) {
    c.bench_function("memory_step_40vms", |b| {
        let mut s = loaded_server(40);
        b.iter(|| std::hint::black_box(s.step(1.0)))
    });
    c.bench_function("memory_trim", |b| {
        let mut s = loaded_server(8);
        for _ in 0..5 {
            s.step(1.0);
        }
        for i in 0..8 {
            s.set_working_set(VmId::new(i), 1.0); // everything goes cold
        }
        s.step(1.0);
        b.iter(|| std::hint::black_box(s.trim(VmId::new(0), 0.001, 1.0)))
    });
    c.bench_function("memory_extend_pool", |b| {
        let mut s = loaded_server(8);
        b.iter(|| std::hint::black_box(s.extend_pool(0.0001, 1.0)))
    });
}

criterion_group!(benches, bench_memory);
criterion_main!(benches);
