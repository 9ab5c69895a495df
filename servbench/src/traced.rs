//! The traced pass: after the timed phases, a slice of the same request
//! stream runs one request at a time through the layer calls in
//! blocking order — admission submit, service round trip, attribute
//! gather, SAGE forward — each wrapped in a span recorded by the
//! benchmark with `lsdgnn_telemetry::Tracer`. The direct backend sample
//! of the same request is timed after the chain, so the service's own
//! overhead is the round trip minus it. Every traced reply is checked.

use crate::check;
use crate::load::{self, mix, Workload};
use crate::stack::{self, Shared, Stack};
use lsdgnn_framework::{
    Priority, SamplingBackend, ShapedRequest, ShapedService, SubmitVerdict, CLASSES,
};
use lsdgnn_nn::{Matrix, SageScratch};
use lsdgnn_telemetry::{TraceEvent, Tracer};
use std::sync::Arc;
use std::time::Instant;

/// Trace process id of the benchmark's client spans.
const PID: u32 = 10;

pub struct Traced {
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub max_lane_depth: u64,
}

/// Runs `requests` traced requests drawn from the workload's stream.
pub fn run(workload: Workload, stack: &Stack, seed: u64, requests: u64, epoch: Instant) -> Traced {
    let tracer = Tracer::new();
    tracer.name_process(PID, "servbench client");
    let tenants = workload.tenants();
    let shaped = ShapedService::start(
        Box::new(Shared(Arc::clone(&stack.backend))),
        stack::service_config(),
        load::admission_config(CLASSES),
        None,
    );
    let model = load::model();
    let mut scratch = SageScratch::new();
    let mut out = Matrix::zeros(1, 1);
    let (mut fetch, mut rows, mut slots) = (Vec::new(), Vec::new(), Vec::new());
    let mut res = Traced {
        tracer: tracer.clone(),
        attempted: 0,
        failed: 0,
        mismatched: 0,
        max_lane_depth: 0,
    };
    let span = |cat: &str, name: &str, t0: Instant, t1: Instant, k: u64, class: usize| {
        let args = [("req", k as f64), ("class", class as f64)];
        let dur = t1.duration_since(t0).as_secs_f64() * 1e6;
        tracer.span_args(cat, name, PID, 0, tracer.us_of(t0), dur, &args);
    };
    for k in 0..requests {
        let rs = mix(seed ^ mix(k));
        let tenant = workload.pick_tenant(rs);
        let req = workload.request(stack, rs, tenant);
        // A single-tenant workload cycles its traced requests through the
        // three lanes, so every lane's round trip is measured.
        let lane = if tenants.len() == 1 {
            k as usize % CLASSES
        } else {
            tenant
        };
        let (t, class) = (&tenants[tenant], Priority::ALL[lane]);
        res.attempted += 1;

        let t0 = Instant::now();
        let verdict = shaped.submit(
            ShapedRequest {
                req: req.clone(),
                tenant: lane,
                class,
                deadline: t.deadline,
            },
            epoch.elapsed().as_micros() as u64,
        );
        let t1 = Instant::now();
        let SubmitVerdict::Admitted(ticket) = verdict else {
            res.failed += 1;
            continue;
        };
        let reply = ticket.wait_reply();
        let t2 = Instant::now();
        fetch.clear();
        reply.block.attr_fetch_into(&mut fetch);
        let attr_len = stack
            .backend
            .gather_attr_rows(&fetch, &mut rows, &mut slots);
        let t3 = Instant::now();
        let block = &reply.block;
        let feats = Matrix::from_vec(rows.len() / attr_len, attr_len, std::mem::take(&mut rows));
        let t4 = Instant::now();
        out.reset(block.roots.len(), model.out_dim());
        model.forward_block_into(
            block.roots.len(),
            &block.hop_offsets[..block.num_hops()],
            &block.adj_offsets,
            &feats,
            &slots,
            &mut scratch,
            &mut out,
        );
        let t5 = Instant::now();
        let alone = stack.backend.sample_block(&req);
        let t6 = Instant::now();

        let c = class.index();
        span("admission", "submit", t0, t1, k, c);
        span("service", "round_trip", t1, t2, k, c);
        span("cluster", "gather", t2, t3, k, c);
        span("nn", "forward", t4, t5, k, c);
        span("bench", "request", t0, t5, k, c);
        span("cluster", "sample", t5, t6, k, c);

        let exact = !reply.degraded
            && check::sample_contract(&stack.graph, &req, block)
            && alone.digest() == block.digest()
            && check::rows_match(&stack.attrs, &fetch, &feats, &slots)
            && check::same_bits(&out, &check::nested_forward(&stack.attrs, block));
        res.failed += u64::from(reply.degraded);
        res.mismatched += u64::from(!exact && !reply.degraded);
        rows = feats.into_vec();
        stack.backend.recycle(alone);
        stack.backend.recycle(reply.block);
    }
    res.max_lane_depth = shaped
        .admission_stats()
        .max_queue
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    shaped.shutdown();
    res
}

/// Durations (µs) of spans `cat/name`, in request order, with their
/// class argument.
pub fn spans(events: &[TraceEvent], cat: &str, name: &str) -> Vec<(f64, usize)> {
    events
        .iter()
        .filter(|e| e.ph == 'X' && e.cat == cat && e.name == name)
        .map(|e| {
            let class = e
                .args
                .iter()
                .find(|(k, _)| k == "class")
                .map_or(0, |(_, v)| *v as usize);
            (e.dur_us, class)
        })
        .collect()
}
