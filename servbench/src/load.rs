//! The three workloads (traffic over the one program configuration),
//! the front door each one drives, and the open- and closed-loop
//! clients. A client is two threads: the caller's thread submits, one
//! collector thread waits for replies in submission order.

use crate::check;
use crate::stack::{self, Shared, Stack, ATTR_LEN, HOPS, MODEL_SEED, NODES, WIDTHS};
use lsdgnn_framework::{
    replay_open_loop, AdmissionConfig, Arrival, BucketConfig, CpuBackend, InferenceConfig,
    InferenceService, InferenceTicket, Priority, SampleRequest, SampleTicket, SamplingBackend,
    SamplingService, ShapedRequest, ShapedService, SubmitVerdict, TenantConfig, TenantSpec,
    TrafficConfig, TrafficTrace, CLASSES,
};
use lsdgnn_graph::NodeId;
use lsdgnn_nn::{Matrix, SageModel};
use lsdgnn_sampler::SampleBlock;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InferHot,
    SampleCold,
    TenantsBurst,
}

/// One tenant of a workload: priority class, request shape, deadline
/// and share of arrivals.
pub struct Tenant {
    pub class: Priority,
    pub roots: usize,
    pub fanout: usize,
    pub deadline: Duration,
    pub weight: u64,
}

const fn single(roots: usize, fanout: usize) -> Tenant {
    Tenant {
        class: Priority::Interactive,
        roots,
        fanout,
        deadline: Duration::from_secs(1),
        weight: 1,
    }
}

static INFER_HOT: [Tenant; 1] = [single(16, 10)];
static SAMPLE_COLD: [Tenant; 1] = [single(128, 10)];
/// The interactive deadline is short enough that slack, not the fixed
/// timer, closes the batches it joins.
static TENANTS_BURST: [Tenant; 3] = [
    Tenant {
        class: Priority::Interactive,
        roots: 4,
        fanout: 10,
        deadline: Duration::from_micros(1_100),
        weight: 3,
    },
    Tenant {
        class: Priority::Batch,
        roots: 16,
        fanout: 8,
        deadline: Duration::from_millis(50),
        weight: 2,
    },
    Tenant {
        class: Priority::BestEffort,
        roots: 8,
        fanout: 5,
        deadline: Duration::from_millis(200),
        weight: 1,
    },
];

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::InferHot,
        Workload::SampleCold,
        Workload::TenantsBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InferHot => "infer_hot",
            Workload::SampleCold => "sample_cold",
            Workload::TenantsBurst => "tenants_burst",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The two open-loop mean rates (light, busy), req/s. On a 2-core
    /// host the busy rate stays at or below half the closed-loop
    /// throughput (a fifth for the bursty trace, whose peaks run several
    /// times the mean), so a slower host still queues without a growing
    /// backlog.
    pub fn rates(self) -> (f64, f64) {
        match self {
            Workload::InferHot => (100.0, 250.0),
            Workload::SampleCold => (15.0, 25.0),
            Workload::TenantsBurst => (200.0, 300.0),
        }
    }

    /// Requests one closed-loop client keeps in flight.
    pub fn window(self) -> usize {
        match self {
            Workload::InferHot => 64,
            Workload::SampleCold => 8,
            Workload::TenantsBurst => 32,
        }
    }

    /// b-model burstiness of the open-loop trace (0.5 is smooth).
    fn burstiness(self) -> f64 {
        match self {
            Workload::TenantsBurst => 0.6,
            _ => 0.5,
        }
    }

    pub fn tenants(self) -> &'static [Tenant] {
        match self {
            Workload::InferHot => &INFER_HOT,
            Workload::SampleCold => &SAMPLE_COLD,
            Workload::TenantsBurst => &TENANTS_BURST,
        }
    }

    /// The seeded open-loop schedule of one phase.
    pub fn trace(self, seed: u64, rate: f64, secs: f64) -> TrafficTrace {
        let tenants = self
            .tenants()
            .iter()
            .enumerate()
            .map(|(i, t)| TenantSpec {
                name: format!("tenant{i}"),
                archetype: "mem-opt.tc".into(),
                class: t.class,
                weight: t.weight as f64,
                deadline_us: t.deadline.as_micros() as u64,
                roots: t.roots,
                hops: HOPS,
                fanout: t.fanout,
            })
            .collect();
        TrafficTrace::generate(&TrafficConfig {
            seed,
            duration_us: (secs * 1e6) as u64,
            mean_rps: rate,
            diurnal_depth: 0.0,
            diurnal_cycles: 1.0,
            burstiness: self.burstiness(),
            cascade_depth: 8,
            tenants,
        })
    }

    /// The tenant of the `i`-th request of a seeded stream, by weight.
    pub fn pick_tenant(self, seed: u64) -> usize {
        let tenants = self.tenants();
        let total: u64 = tenants.iter().map(|t| t.weight).sum();
        let mut x = mix(seed ^ 0x7e4a) % total;
        tenants
            .iter()
            .position(|t| {
                let hit = x < t.weight;
                x = x.wrapping_sub(t.weight);
                hit
            })
            .expect("weights cover the draw")
    }

    /// Materializes a request: roots are a pure function of the seed.
    /// `infer_hot` draws nine roots in ten from the hot head; the other
    /// workloads draw uniformly over the whole graph.
    pub fn request(self, stack: &Stack, seed: u64, tenant: usize) -> SampleRequest {
        let t = &self.tenants()[tenant];
        let roots = (0..t.roots as u64)
            .map(|i| {
                let x = mix(seed ^ mix(i + 1));
                if self == Workload::InferHot && x % 10 < 9 {
                    stack.hot[((x >> 32) % stack.hot.len() as u64) as usize]
                } else {
                    NodeId((x >> 11) % NODES)
                }
            })
            .collect();
        SampleRequest {
            roots,
            hops: HOPS,
            fanout: t.fanout,
            seed,
        }
    }
}

/// SplitMix64 finalizer: the benchmark's seeded draws.
pub fn mix(v: u64) -> u64 {
    let mut x = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub fn model() -> SageModel {
    SageModel::new(&WIDTHS, MODEL_SEED)
}

/// Admission contract: buckets far above any rate a 2-core host can
/// serve, lanes deep enough that none fills, no brownout (no SLO
/// monitor is installed) — so no request is refused.
pub fn admission_config(tenants: usize) -> AdmissionConfig {
    AdmissionConfig {
        tenants: (0..tenants)
            .map(|i| TenantConfig {
                name: format!("tenant{i}"),
                bucket: BucketConfig {
                    rate_per_sec: 50_000.0,
                    burst: 5_000.0,
                },
            })
            .collect(),
        queue_bounds: [4096; CLASSES],
        brownout: None,
    }
}

/// The front door a workload's traffic enters.
pub enum Front {
    Infer(InferenceService),
    Sample(SamplingService),
    Shaped(ShapedService),
}

pub enum Ticket {
    Infer(InferenceTicket),
    Sample(SampleTicket),
    Refused,
}

/// A reply kept for the output checks after the timed phases.
pub enum Kept {
    Embeddings(Matrix),
    /// A sampled block plus whether its gathered rows, checked when they
    /// arrived (keeping the rows would inflate peak memory), equal the
    /// attribute store's.
    Gathered {
        block: SampleBlock,
        rows_match: bool,
    },
    Block(SampleBlock),
}

/// One request in flight from the submitter to the collector.
pub struct Pending {
    ticket: Ticket,
    due: Instant,
    class: Priority,
    kept: Option<SampleRequest>,
}

impl Front {
    pub fn start(workload: Workload, backend: &Arc<CpuBackend>) -> Front {
        let shared = || Box::new(Shared(Arc::clone(backend)));
        match workload {
            Workload::InferHot => Front::Infer(InferenceService::start(
                SamplingService::start(shared(), stack::service_config()),
                model(),
                InferenceConfig::default(),
            )),
            Workload::SampleCold => {
                Front::Sample(SamplingService::start(shared(), stack::service_config()))
            }
            Workload::TenantsBurst => Front::Shaped(ShapedService::start(
                shared(),
                stack::service_config(),
                admission_config(workload.tenants().len()),
                None,
            )),
        }
    }

    pub fn shutdown(self) {
        match self {
            Front::Infer(s) => s.shutdown(),
            Front::Sample(s) => s.shutdown(),
            Front::Shaped(s) => s.shutdown(),
        }
    }

    /// Submits one request; `now_us` is the admission clock.
    pub fn submit(&self, req: SampleRequest, tenant: usize, t: &Tenant, now_us: u64) -> Ticket {
        match self {
            Front::Infer(s) => Ticket::Infer(s.submit(req)),
            Front::Sample(s) => Ticket::Sample(s.submit(req)),
            Front::Shaped(s) => match s.submit(
                ShapedRequest {
                    req,
                    tenant,
                    class: t.class,
                    deadline: t.deadline,
                },
                now_us,
            ) {
                SubmitVerdict::Admitted(ticket) => Ticket::Sample(ticket),
                SubmitVerdict::Rejected { .. } | SubmitVerdict::Shed => Ticket::Refused,
            },
        }
    }

    /// Waits for one reply and finishes the operation (`sample_cold`
    /// gathers the sampled rows). Returns whether it succeeded exactly,
    /// and the reply itself when `keep` asks for it.
    fn complete(
        &self,
        ticket: Ticket,
        keep: bool,
        stack: &Stack,
        buf: &mut Buffers,
    ) -> (bool, Option<Kept>) {
        let backend = &stack.backend;
        match (self, ticket) {
            (_, Ticket::Refused) => (false, None),
            (Front::Infer(s), Ticket::Infer(t)) => {
                let reply = t.wait();
                let ok = !reply.degraded;
                let kept = keep.then(|| Kept::Embeddings(reply.embeddings.clone()));
                s.recycle(reply);
                (ok, kept)
            }
            (Front::Sample(s), Ticket::Sample(t)) => {
                let reply = t.wait_reply();
                buf.fetch.clear();
                reply.block.attr_fetch_into(&mut buf.fetch);
                s.gather_attr_rows(&buf.fetch, &mut buf.rows, &mut buf.slots);
                let ok = !reply.degraded;
                if keep {
                    let n = buf.rows.len() / ATTR_LEN;
                    let rows = Matrix::from_vec(n, ATTR_LEN, std::mem::take(&mut buf.rows));
                    let rows_match = check::rows_match(&stack.attrs, &buf.fetch, &rows, &buf.slots);
                    buf.rows = rows.into_vec();
                    let block = reply.block;
                    return (ok, Some(Kept::Gathered { block, rows_match }));
                }
                backend.recycle(reply.block);
                (ok, None)
            }
            (Front::Shaped(_), Ticket::Sample(t)) => {
                let reply = t.wait_reply();
                let ok = !reply.degraded;
                if keep {
                    return (ok, Some(Kept::Block(reply.block)));
                }
                backend.recycle(reply.block);
                (ok, None)
            }
            _ => unreachable!("ticket kind follows the front door"),
        }
    }
}

/// The collector's reusable gather buffers.
#[derive(Default)]
struct Buffers {
    fetch: Vec<NodeId>,
    rows: Vec<f32>,
    slots: Vec<u32>,
}

/// What one phase of a client did.
#[derive(Default)]
pub struct Phase {
    pub secs: f64,
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Submissions refused at admission (counted in `failed` too).
    pub refused: u64,
    /// Due-to-reply latency per class, ms.
    pub latency_ms: [Vec<f64>; CLASSES],
    /// How late the generator sent each request, µs.
    pub late_us: Vec<f64>,
    /// Closed-loop slices: (seconds, requests completed, CPU seconds).
    pub slices: Vec<(f64, u64, f64)>,
    pub kept: Vec<(SampleRequest, Kept)>,
}

/// Replies kept per phase for the output checks, and the stride between
/// them in submission order.
const KEEP: usize = 2;
const KEEP_STRIDE: u64 = 23;

pub struct Client<'a> {
    pub workload: Workload,
    pub stack: &'a Stack,
    pub front: &'a Front,
    /// Origin of the admission clock.
    pub epoch: Instant,
}

impl Client<'_> {
    fn collect(&self, rx: mpsc::Receiver<Pending>, slices: Option<(Instant, f64, usize)>) -> Phase {
        let mut ph = Phase::default();
        let mut marks = slices.map(|(t0, _, _)| (t0, 0u64, stack::process_cpu_s()));
        let mut buf = Buffers::default();
        for p in rx {
            ph.refused += u64::from(matches!(p.ticket, Ticket::Refused));
            let (ok, kept) = self
                .front
                .complete(p.ticket, p.kept.is_some(), self.stack, &mut buf);
            let done = Instant::now();
            ph.completed += u64::from(ok);
            ph.failed += u64::from(!ok);
            if ok {
                ph.latency_ms[p.class.index()]
                    .push(done.saturating_duration_since(p.due).as_secs_f64() * 1e3);
            }
            if let (Some(req), Some(kept)) = (p.kept, kept) {
                ph.kept.push((req, kept));
            }
            if let (Some((t0, slice_s, n)), Some(mark)) = (slices, marks.as_mut()) {
                let boundary = t0 + Duration::from_secs_f64(slice_s * (ph.slices.len() + 1) as f64);
                if ph.slices.len() < n && done >= boundary {
                    let cpu = stack::process_cpu_s();
                    ph.slices.push((
                        done.duration_since(mark.0).as_secs_f64(),
                        ph.completed - mark.1,
                        cpu - mark.2,
                    ));
                    *mark = (done, ph.completed, cpu);
                }
            }
        }
        ph
    }

    fn pending(&self, i: u64, seed: u64, tenant: usize, due: Instant, kept: usize) -> Pending {
        let t = &self.workload.tenants()[tenant];
        let req = self.workload.request(self.stack, seed, tenant);
        let keep = (i.is_multiple_of(KEEP_STRIDE) && kept < KEEP).then(|| req.clone());
        let now_us = self.epoch.elapsed().as_micros() as u64;
        Pending {
            ticket: self.front.submit(req, tenant, t, now_us),
            due,
            class: t.class,
            kept: keep,
        }
    }

    /// Replays `trace` open loop in real time. Each request is timed from
    /// the instant it was due, so a stall delays every later request.
    pub fn open_loop(&self, trace: &TrafficTrace) -> Phase {
        let (tx, rx) = mpsc::channel();
        let t0 = Instant::now();
        let mut ph = std::thread::scope(|s| {
            let collector = s.spawn(|| self.collect(rx, None));
            let (mut i, mut kept, mut late) = (0u64, 0usize, Vec::with_capacity(trace.len()));
            replay_open_loop(trace, 1.0, |a: &Arrival| {
                let due = t0 + Duration::from_micros(a.at_us);
                late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                let p = self.pending(i, a.seed, a.tenant as usize, due, kept);
                kept += usize::from(p.kept.is_some());
                tx.send(p).expect("collector alive");
                i += 1;
            });
            drop(tx);
            let mut ph = collector.join().expect("collector thread");
            ph.submitted = i;
            ph.late_us = late;
            ph
        });
        ph.secs = t0.elapsed().as_secs_f64();
        ph
    }

    /// One client keeps `window` requests in flight for `secs`; the
    /// collector closes a slice every `secs / slices` seconds.
    pub fn closed_loop(&self, seed: u64, secs: f64, slices: usize) -> Phase {
        let window = self.workload.window();
        // The submitter holds one request and the collector waits on
        // another, so the channel carries the rest of the window.
        let (tx, rx) = mpsc::sync_channel(window - 2);
        let t0 = Instant::now();
        let end = t0 + Duration::from_secs_f64(secs);
        let mut ph = std::thread::scope(|s| {
            let collector = s.spawn(|| self.collect(rx, Some((t0, secs / slices as f64, slices))));
            let (mut i, mut kept) = (0u64, 0usize);
            while Instant::now() < end {
                let rs = mix(seed ^ mix(i));
                let p = self.pending(i, rs, self.workload.pick_tenant(rs), Instant::now(), kept);
                kept += usize::from(p.kept.is_some());
                tx.send(p).expect("collector alive");
                i += 1;
            }
            drop(tx);
            let mut ph = collector.join().expect("collector thread");
            ph.submitted = i;
            ph
        });
        ph.secs = t0.elapsed().as_secs_f64();
        ph
    }
}
