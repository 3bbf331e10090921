//! Real-thread serving (`serve_hot`): a `Server` driven by `spawn_worker`
//! serving the Table III post-variational classifier trained during the
//! run, with requests drawn Zipf-skewed from a catalogue that fits the
//! feature cache, so every request is a hit after warm-up.

use crate::paper::{
    fit_split, overhead_pct, pv_strategy, qsim_replay, repeated_setup, replay_rate, run_rounds,
    traced_fit, untraced, Phase, TaskKey, TrainLog, HPCQ_LAYER, TEST_PER_CLASS,
};
use crate::util::{
    closed_loop_throughput, interquartile_mean, median, quantile, same_bits, LatencyLog,
};
use crate::{trace, Config, Outcome};
use bench::binary_task;
use linalg::Mat;
use ml::LogisticConfig;
use pvqnn::{FeatureBackend, FeatureGenerator, PostVarClassifier};
use serve::{
    spawn_worker, FeatureCache, ResponseHandle, ServedModel, Server, ServerConfig, ServerStats,
    ZipfStream,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered rate of the open-loop segments (requests per second): a tenth
/// of the saturation rate on a 2-vCPU host, so the server stays under a
/// third busy even while a noisy neighbour halves the host's speed
/// (saturation was seen to fall to 65 000 req/s for minutes at a time).
const RATE: f64 = 20_000.0;
/// Window over which closed-loop throughput is counted.
const WINDOW: Duration = Duration::from_millis(250);
/// Length of each open-loop and each closed-loop segment of a round.
/// Each open-loop segment is one latency window.
const SEGMENT: Duration = Duration::from_secs(1);
/// A window whose median request left the generator more than this
/// after its due time fell behind its schedule: it measures the
/// harness, not the server, and is left out of the quantiles. Isolated
/// host stalls of a few ms delay a few dozen requests and do not trip it.
const LATE_LIMIT_MS: f64 = 1.0;
/// Spans are kept for every this-many-th request and closed-loop round;
/// the phases around them are spanned whole.
const SPAN_EVERY: usize = 16;
/// Catalogue size (fits the cache) and Zipf exponent.
const CATALOGUE: usize = 64;
const ZIPF_S: f64 = 1.1;
/// Closed-loop clients: two threads, each keeping this many requests
/// outstanding (one full micro-batch).
const CLIENT_WINDOW: usize = 16;

fn server_config() -> ServerConfig {
    ServerConfig {
        max_batch: 16,
        queue_capacity: 4096,
        // At or above the capacity: no brownout shedding, only the hard
        // queue bound, so a refused request is a real overload.
        high_water: 4096,
        cache_capacity: 1024,
        // No simulated deadline: latency here is wall-clock.
        default_deadline_ns: 0,
        ..ServerConfig::default()
    }
}

/// A running server and its batcher thread.
struct Running {
    server: Arc<Server>,
    worker: JoinHandle<()>,
}

impl Running {
    fn start(model: &PostVarClassifier) -> Self {
        let server = Arc::new(Server::new(server_config()));
        server.deploy(model.clone());
        let worker = spawn_worker(Arc::clone(&server));
        Running { server, worker }
    }

    fn stop(self) {
        self.server.stop();
        self.worker.join().expect("server worker panicked");
    }
}

/// One open-loop request as the collector saw it.
struct Served {
    index: usize,
    latency_ms: f64,
    late_ms: f64,
    submit_us: f64,
    prediction: Option<f64>,
}

/// One open-loop segment: a generator thread submits `points` at
/// [`RATE`] and a collector thread waits on the responses in order,
/// timing each from its due time. Both block rather than spin: on a
/// small host a spinning thread takes a core from the server it measures.
fn open_segment(
    server: &Server,
    points: &[(usize, Vec<f64>)],
    first: usize,
    phase: Option<u64>,
) -> Vec<Served> {
    let (tx, rx) = channel::<(
        usize,
        Instant,
        Instant,
        f64,
        Result<ResponseHandle, serve::Rejected>,
    )>();
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|s| {
        s.spawn(move || {
            for (i, (_, x)) in points.iter().enumerate() {
                let due = start + Duration::from_secs_f64(i as f64 / RATE);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t_sub = Instant::now();
                let handle = server.submit(x.clone());
                let submit_us = t_sub.elapsed().as_secs_f64() * 1e6;
                tx.send((i, due, t_sub, submit_us, handle))
                    .expect("collector alive");
            }
        });
        let collector = s.spawn(move || {
            let mut served = Vec::with_capacity(points.len());
            for (i, due, t_sub, submit_us, handle) in rx {
                let result = handle.and_then(ResponseHandle::wait);
                let done = Instant::now();
                if trace::enabled() && (first + i).is_multiple_of(SPAN_EVERY) {
                    let req = Some((first + i) as u64);
                    trace::record(
                        "loadgen.late",
                        phase,
                        trace::ns_of(due),
                        trace::ns_of(t_sub),
                        req,
                    );
                    trace::record(
                        "serve.request",
                        phase,
                        trace::ns_of(t_sub),
                        trace::ns_of(done),
                        req,
                    );
                }
                served.push(Served {
                    index: i,
                    latency_ms: (done - due).as_secs_f64() * 1e3,
                    late_ms: (t_sub - due).as_secs_f64() * 1e3,
                    submit_us,
                    prediction: result.ok().map(|r| r.prediction.as_f64()),
                });
            }
            served
        });
        collector.join().expect("collector panicked")
    })
}

pub fn serve_hot(cfg: &Config, root: u64) -> Outcome {
    let mut out = Outcome::default();
    for n in HPCQ_LAYER {
        out.layers.insert(n, 0.0);
    }
    let generator = FeatureGenerator::new(pv_strategy(), FeatureBackend::Exact);
    let task = binary_task(200, TEST_PER_CLASS, cfg.seed);

    let mut fits = Vec::new();
    let mut fit_once = |parent: Option<u64>| {
        let (m, fit_s, gen_s) = traced_fit(
            parent,
            || {
                PostVarClassifier::fit(
                    generator.clone(),
                    &task.train_x,
                    &task.train_y,
                    LogisticConfig::default(),
                )
            },
            || {
                std::hint::black_box(generator.generate(&task.train_x));
            },
        );
        fits.push((fit_s, gen_s));
        let loss = m.evaluate(&task.train_x, &task.train_y).0;
        (m, fit_s, loss)
    };
    let mut train = TrainLog::default();
    let model = train.run(root, &mut fit_once);
    {
        let _p = Phase::open("pvqnn.evaluate", root);
        let (loss, acc) = model.evaluate(&task.train_x, &task.train_y);
        let (_, test_acc) = model.evaluate(&task.test_x, &task.test_y);
        out.check(acc >= 0.6, || format!("train accuracy {acc} below 0.6"));
        out.e2e.insert("train_loss", loss);
        out.e2e.insert("train_acc", acc);
        out.e2e.insert("test_acc", test_acc);
    }

    // Set-up: synthesise the data, bring a server up with the model
    // deployed and its batcher running, and prime its cache with the
    // catalogue. The servers of earlier repeats are shut down after.
    let mut kept: Vec<Running> = Vec::new();
    let catalogue: Vec<Vec<f64>> = repeated_setup(&mut out, root, |parent| {
        let (task, synth_s) = trace::timed("qdata.synth", parent, |_| {
            binary_task(200, TEST_PER_CLASS, cfg.seed)
        });
        let catalogue: Vec<Vec<f64>> = task.test_x[..CATALOGUE].to_vec();
        let running = trace::timed("serve.start", parent, |_| Running::start(&model)).0;
        trace::timed("serve.warm", parent, |_| {
            let handles: Vec<ResponseHandle> = catalogue
                .iter()
                .map(|x| running.server.submit(x.clone()).expect("warm-up admitted"))
                .collect();
            for h in handles {
                h.wait().expect("warm-up served");
            }
        });
        kept.push(running);
        (
            TaskKey::new(&task.train_x, &task.test_x),
            catalogue,
            synth_s,
        )
    });
    let running = kept.pop().expect("set-up leaves a server running");
    for r in kept {
        r.stop();
    }
    let server = &running.server;
    // Standalone predict: what a lone caller gets from the model itself.
    let expected: Vec<f64> = catalogue
        .iter()
        .map(|x| model.predict_proba(std::slice::from_ref(x))[0])
        .collect();
    let position = |x: &Vec<f64>| {
        catalogue
            .iter()
            .position(|c| std::ptr::eq(c, x))
            .expect("catalogue point")
    };
    let per_segment = (RATE * SEGMENT.as_secs_f64()).round() as usize;
    let mut open_stream = ZipfStream::new(&catalogue, ZIPF_S, cfg.seed);
    let closed_idx: Vec<usize> = {
        let mut stream = ZipfStream::new(&catalogue, ZIPF_S, cfg.seed ^ 0xC105ED);
        (0..1 << 14)
            .map(|_| position(stream.next_point()))
            .collect()
    };

    // Closed loop: two client threads, each keeping a micro-batch of
    // requests outstanding; `round` numbers their submissions.
    let round_parent = AtomicU64::new(0);
    let segment_base = AtomicU64::new(0);
    let closed = |t: usize, round: usize| -> (u64, u64) {
        let start_ns = trace::now_ns();
        let base = segment_base.load(Ordering::Relaxed) as usize;
        let handles: Vec<_> = (0..CLIENT_WINDOW)
            .map(|k| {
                let j = closed_idx[((base + round * 2 + t) * CLIENT_WINDOW + k) % closed_idx.len()];
                (j, server.submit(catalogue[j].clone()))
            })
            .collect();
        let mut bad = 0u64;
        for (j, h) in handles {
            bad += match h.and_then(ResponseHandle::wait) {
                Ok(r) => u64::from(!same_bits(r.prediction.as_f64(), expected[j])),
                Err(_) => 1,
            };
        }
        if round.is_multiple_of(SPAN_EVERY) {
            let parent = Some(round_parent.load(Ordering::Relaxed)).filter(|&p| p != 0);
            trace::record("serve.round", parent, start_ns, trace::now_ns(), None);
        }
        (CLIENT_WINDOW as u64, bad)
    };

    let before = server.stats();
    let mut log = LatencyLog::default();
    let mut late_by_window: Vec<Vec<f64>> = Vec::new();
    let mut submits: Vec<f64> = Vec::new();
    let (mut rates, mut untraced_rates) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut sent = 0usize;
    run_rounds(cfg, |k| {
        if train.wants_repeat(cfg) {
            train.run(root, &mut fit_once);
        }

        // Open loop: independent users at a fixed rate.
        let points: Vec<(usize, Vec<f64>)> = (0..per_segment)
            .map(|_| {
                let x = open_stream.next_point();
                (position(x), x.clone())
            })
            .collect();
        let served = {
            let phase = Phase::open("serve.open_loop", root);
            open_segment(server, &points, sent, phase.id())
        };
        let mut late = Vec::with_capacity(served.len());
        for r in &served {
            log.push(k, r.latency_ms);
            late.push(r.late_ms);
            submits.push(r.submit_us);
            attempted += 1;
            failed += match r.prediction {
                Some(p) => u64::from(!same_bits(p, expected[points[r.index].0])),
                None => 1,
            };
        }
        late_by_window.push(late);
        sent += points.len();

        // Closed loop. A traced run alternates untraced and traced
        // segments; their rates give the tracing overhead.
        segment_base.store((k as u64) << 20, Ordering::Relaxed);
        let (a, f) = if trace::enabled() && k.is_multiple_of(2) {
            untraced(Some(root), || {
                closed_loop_throughput(&mut untraced_rates, 2, SEGMENT, WINDOW, closed)
            })
        } else {
            let phase = Phase::open("serve.closed_loop", root);
            round_parent.store(phase.id().unwrap_or(0), Ordering::Relaxed);
            closed_loop_throughput(&mut rates, 2, SEGMENT, WINDOW, closed)
        };
        attempted += a;
        failed += f;
    });
    train.finish(&mut out);
    fit_split(&mut out, &fits, task.train_x.len());
    out.tally(attempted, failed);
    out.check(failed == 0, || {
        format!("{failed} served predictions failed or differ from standalone predict")
    });

    let invalid: Vec<usize> = (0..late_by_window.len())
        .filter(|&w| median(&late_by_window[w]) > LATE_LIMIT_MS)
        .collect();
    let windows = late_by_window.len();
    let (p50, p90, p99, used) = log.windowed(&invalid);
    out.check(used * 2 >= windows, || {
        format!(
            "load generator fell behind its schedule in {} of {windows} windows",
            invalid.len()
        )
    });
    out.e2e.insert("p50_ms", p50);
    out.e2e.insert("p90_ms", p90);
    out.layers.insert("tail.p99_ms", p99);
    let mut late: Vec<f64> = late_by_window.concat();
    late.sort_by(f64::total_cmp);
    out.layers.insert("loadgen.late_ms", quantile(&late, 0.99));
    out.layers
        .insert("loadgen.invalid_windows", invalid.len() as f64);
    out.layers.insert("serve.submit_us", median(&submits));
    let max_rps = interquartile_mean(&rates);
    out.e2e.insert("max_rps", max_rps);
    out.layers
        .insert("trace.overhead_pct", overhead_pct(&untraced_rates, max_rps));

    let stats = delta(&before, &server.stats());
    out.check(stats.rejected_total() == 0, || {
        format!("{} requests refused", stats.rejected_total())
    });
    out.layers
        .insert("serve.batch_rows_mean", stats.mean_batch_size());
    out.layers
        .insert("serve.unique_simulations", stats.unique_simulations as f64);
    let hit_rate = stats.cache.hits as f64 / (stats.cache.hits + stats.cache.misses).max(1) as f64;
    out.layers.insert("serve.cache_hit_rate", hit_rate);
    out.check(hit_rate == 1.0, || {
        format!("hit rate {hit_rate} is not 1 on a primed catalogue")
    });
    out.layers.insert(
        "serve.rejected_queue_full",
        stats.rejected_queue_full as f64,
    );
    out.layers.insert(
        "serve.rejected_shed",
        (stats.rejected_overloaded + stats.rejected_over_share + stats.rejected_deferred) as f64,
    );
    out.layers
        .insert("serve.rejected_deadline", stats.rejected_deadline as f64);
    out.layers.insert(
        "serve.rejected_other",
        (stats.rejected_invalid + stats.rejected_backend) as f64,
    );
    running.stop();

    if trace::enabled() {
        let (s, ops) = qsim_replay(root, &generator, &task.train_x, None, cfg.seed);
        out.layers.insert("qsim.kernel_s", s);
        out.layers.insert("qsim.amp_ops", ops);
        let refs: Vec<&[f64]> = catalogue.iter().map(Vec::as_slice).collect();
        let rows = generator.generate_rows_standalone(&refs);

        // The head sweep the batcher runs on a full micro-batch.
        let served_model = ServedModel::from(model.clone());
        let batch = Mat::from_rows(&rows[..16]);
        let per_call = replay_rate(root, 0.2, || {
            std::hint::black_box(served_model.predict_batch(&batch));
        });
        out.layers
            .insert("ml.predict_us_per_row", per_call / 16.0 * 1e6);

        // Cache lookups as the batcher makes them: quantize, then get.
        let config = server_config();
        let mut cache = FeatureCache::new(config.cache_capacity, config.quant_scale);
        let tag = generator.fingerprint();
        for (x, row) in catalogue.iter().zip(&rows) {
            cache.insert(tag, cache.quantize(x), row.clone());
        }
        let probes: Vec<&Vec<f64>> = closed_idx
            .iter()
            .take(4096)
            .map(|&j| &catalogue[j])
            .collect();
        let per_pass = replay_rate(root, 0.2, || {
            for x in &probes {
                let key = cache.quantize(x);
                std::hint::black_box(cache.get(tag, &key).is_some());
            }
        });
        out.layers.insert(
            "serve.cache_us_per_lookup",
            per_pass / probes.len() as f64 * 1e6,
        );
    }
    out
}

/// Counter deltas between two stats snapshots.
fn delta(a: &ServerStats, b: &ServerStats) -> ServerStats {
    let mut d = b.clone();
    d.submitted -= a.submitted;
    d.completed -= a.completed;
    d.rejected_queue_full -= a.rejected_queue_full;
    d.rejected_overloaded -= a.rejected_overloaded;
    d.rejected_over_share -= a.rejected_over_share;
    d.rejected_deferred -= a.rejected_deferred;
    d.rejected_deadline -= a.rejected_deadline;
    d.rejected_invalid -= a.rejected_invalid;
    d.rejected_backend -= a.rejected_backend;
    d.batches -= a.batches;
    d.batch_rows -= a.batch_rows;
    d.unique_simulations -= a.unique_simulations;
    d.cache.hits -= a.cache.hits;
    d.cache.misses -= a.cache.misses;
    d
}
