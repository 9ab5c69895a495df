//! The program configuration every workload runs, its set-up, and the
//! process accounting the end-to-end metrics read.

use lsdgnn_framework::{
    BackendError, BatchPolicy, CacheConfig, CacheSnapshot, Cluster, CpuBackend, RequestStats,
    SampleOutcome, SampleRequest, SamplingBackend, ServiceConfig, WireConfig,
};
use lsdgnn_graph::{generators, AttributeStore, CsrGraph, NodeId, PartitionedGraph};
use lsdgnn_sampler::{SampleBatch, SampleBlock};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Graph size: large enough that a uniform working set dwarfs the
/// cache, small enough that three set-ups fit in a run.
pub const NODES: u64 = 60_000;
/// Power-law attachment degree (the graph is undirected, so the mean
/// degree is twice this).
pub const EDGES_PER_NODE: u64 = 16;
/// The graph is fixed; the workload seed varies only the traffic.
pub const GRAPH_SEED: u64 = 91;
/// Floats per attribute row (256 B, an embedding-table row).
pub const ATTR_LEN: usize = 64;
/// The default hash partitioning, so part of every hot set is remote.
pub const PARTITIONS: u32 = 2;
/// Sampling hops, one per SAGE layer.
pub const HOPS: u32 = 2;
/// GraphSAGE widths served on top of the attribute rows.
pub const WIDTHS: [usize; 3] = [ATTR_LEN, 16, 8];
pub const MODEL_SEED: u64 = 61;
/// Entries per cache tier (neighbor lists and attribute rows each).
pub const CACHE_CAPACITY: usize = 4096;
/// Top-degree nodes `infer_hot` draws most roots from; the cache is
/// warmed with the same set at spawn.
pub const HOT_SET: usize = 256;

pub fn cache_config() -> CacheConfig {
    CacheConfig {
        neigh_capacity: CACHE_CAPACITY,
        attr_capacity: CACHE_CAPACITY,
        shards: 16,
        admission: true,
        warm_top_degree: HOT_SET,
    }
}

/// One sampling worker; batches close on deadline slack (requests
/// without a deadline wait the fixed 200 µs).
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 256,
        max_batch: 32,
        batch_deadline: Duration::from_micros(200),
        batch: BatchPolicy::SlackDriven {
            est_service: Duration::from_millis(1),
        },
        ..ServiceConfig::default()
    }
}

/// Hands a service a `CpuBackend` the benchmark can still read: the
/// wire and buffer-pool counters live on the concrete backend, which a
/// service otherwise owns behind `dyn SamplingBackend`. Every verb
/// forwards unchanged.
pub struct Shared(pub Arc<CpuBackend>);

impl SamplingBackend for Shared {
    fn sample_block(&self, req: &SampleRequest) -> SampleBlock {
        self.0.sample_block(req)
    }
    fn sample_neighbors(&self, req: &SampleRequest) -> SampleBatch {
        self.0.sample_neighbors(req)
    }
    fn gather_attributes(&self, nodes: &[NodeId]) -> Vec<f32> {
        self.0.gather_attributes(nodes)
    }
    fn gather_attr_rows(
        &self,
        nodes: &[NodeId],
        rows: &mut Vec<f32>,
        slot_of: &mut Vec<u32>,
    ) -> usize {
        self.0.gather_attr_rows(nodes, rows, slot_of)
    }
    fn stats(&self) -> RequestStats {
        self.0.stats()
    }
    fn flush(&self) {
        self.0.flush()
    }
    fn sample_many(&self, reqs: &[&SampleRequest]) -> Vec<SampleBlock> {
        self.0.sample_many(reqs)
    }
    fn recycle(&self, block: SampleBlock) {
        self.0.recycle(block)
    }
    fn try_sample(&self, req: &SampleRequest, attempt: u32) -> Result<SampleOutcome, BackendError> {
        self.0.try_sample(req, attempt)
    }
    fn sample_excluding(&self, req: &SampleRequest, excluded: &[u32]) -> SampleOutcome {
        self.0.sample_excluding(req, excluded)
    }
    fn fail_shard(&self, shard: u32) -> bool {
        self.0.fail_shard(shard)
    }
    fn shards(&self) -> u32 {
        self.0.shards()
    }
    fn cache_snapshot(&self) -> Option<CacheSnapshot> {
        self.0.cache_snapshot()
    }
}

/// The benchmark's own copy of the inputs (for the output checks) plus
/// the running cluster.
pub struct Stack {
    pub graph: CsrGraph,
    pub attrs: AttributeStore,
    pub hot: Vec<NodeId>,
    pub backend: Arc<CpuBackend>,
    pub build_s: f64,
    pub spawn_s: f64,
}

/// Builds graph and attributes, partitions them, and spawns the wired,
/// cached cluster (the cache warm-up runs inside the spawn).
pub fn build() -> Stack {
    let t0 = Instant::now();
    let graph = generators::power_law(NODES, EDGES_PER_NODE, GRAPH_SEED);
    let attrs = AttributeStore::synthetic(NODES, ATTR_LEN, GRAPH_SEED);
    let pg = PartitionedGraph::new(graph.clone(), PARTITIONS).with_attributes(attrs.clone());
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let cluster = Cluster::spawn_wired_cached(pg, WireConfig::default(), cache_config());
    let backend = Arc::new(CpuBackend::from_cluster(cluster));
    let spawn_s = t1.elapsed().as_secs_f64();
    let hot = graph.top_degree_nodes(HOT_SET);
    Stack {
        graph,
        attrs,
        hot,
        backend,
        build_s,
        spawn_s,
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, user and system, at nanosecond resolution.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU seconds so far (all threads, user + system).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark builds for), and
    // `clock_gettime` writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib * 1024.0 / 1e6
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads 64-bit Linux process accounting");
