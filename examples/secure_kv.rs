//! A memcached-style key-value server in a secure container, compared
//! across container designs (the paper's Figure 16 scenario).
//!
//! ```sh
//! cargo run --release --example secure_kv
//! ```

use cki::{Backend, Stack, StackConfig};
use workloads::kv::{KvKind, KvServerWorkload};

fn run(backend: Backend, clients: u32) -> f64 {
    let mut stack = Stack::new(backend, StackConfig::default());
    let report = KvServerWorkload::new(KvKind::Memcached, 3000, clients)
        .run(&mut stack.env())
        .expect("kv server");
    report.ops_per_sec()
}

fn main() {
    println!("memcached-style server, closed-loop memtier clients, one vCPU\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "clients", "HVM-NST", "PVM", "CKI", "CKI/HVM-NST"
    );
    for clients in [1u32, 4, 16, 64] {
        let hvm_nst = run(Backend::HvmNested, clients);
        let pvm = run(Backend::Pvm, clients);
        let cki = run(Backend::Cki, clients);
        println!(
            "{:<10} {:>10.0}/s {:>10.0}/s {:>10.0}/s {:>11.2}x",
            clients,
            hvm_nst,
            pvm,
            cki,
            cki / hvm_nst
        );
    }
    println!(
        "\nCKI keeps syscalls native and rings its VirtIO doorbell with a \
         shared-memory write\n(zero exits), while every nested-HVM doorbell \
         costs a 6.7 µs L0-mediated exit (paper §7.3)."
    );
}
