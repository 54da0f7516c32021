//! The workload suite of the CKI paper's evaluation (§7).
//!
//! Every workload is an application program driving the guest kernel
//! through [`guest_os::Env`] — syscalls, raw memory accesses (which demand-
//! page through the platform under test), and compute. The same workload
//! binary runs unchanged on RunC, HVM (bare-metal/nested), PVM, and CKI,
//! exactly as the paper's container images do.
//!
//! | module | paper workloads | figures |
//! |---|---|---|
//! | [`btree`] | BTree insert/lookup KV store | Fig. 4, 12, 13a; Table 4 |
//! | [`xsbench`] | XSBench Monte-Carlo neutron transport | Fig. 4, 12, 13b |
//! | [`parsec`] | canneal, dedup, fluidanimate, freqmine | Fig. 4, 12 |
//! | [`gups`] | HPCC RandomAccess | Table 4 |
//! | [`lmbench`] | 10 lmbench microbenchmarks | Fig. 11 |
//! | [`sqlite`] | sqlite-bench (LevelDB db_bench_sqlite3) | Fig. 5, 14, 15 |
//! | [`kv`] | memcached / Redis under memtier | Fig. 5, 16 |
//! | [`iobench`] | nginx, httpd, netperf | Fig. 5 |
//! | [`fleet`] | one server NIC under a host-side client fleet | Fig. 5, 16 |
//! | [`serving`] | cross-container serving over virtqueue NICs | `net_serving` |

pub mod btree;
pub mod fleet;
pub mod gups;
pub mod iobench;
pub mod kv;
pub mod lmbench;
pub mod parsec;
pub mod report;
pub mod serving;
pub mod sqlite;
pub mod xsbench;

pub use report::Report;
