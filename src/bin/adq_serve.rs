//! `adq-serve` — scaled-out integer inference server.
//!
//! ```text
//! adq-serve serve    [--addr 127.0.0.1:0] [--port-file PATH]
//!                    [--max-batch N] [--max-wait-ms MS]
//!                    [--replicas N] [--conn-workers N]
//!                    [--queue-cap N]
//!                    [--access-log PATH] [--exemplars K]
//!                    [--model vgg|resnet] [--arch tiny|small]
//!                    [--checkpoint PATH] [--channels C]
//!                    [--seed S] [--resolution R] [--classes K] [--bits B]
//! adq-serve probe    --addr HOST:PORT [--requests N]
//!                    [--burst N [--expect-shed 0|1]]
//! adq-serve shutdown --addr HOST:PORT
//! adq-serve load-gen [--concurrency 1,4] [--replicas 1] [--requests N]
//!                    [--out FILE.json] [--max-batch N] [--max-wait-ms MS]
//!                    [--queue-cap N] [--seed S] ...
//! adq-serve help
//! ```
//!
//! Batching, pool and admission flags left unset take their values from
//! `ServeConfig::default()`; `adq-serve help` prints them.
//!
//! `serve` lowers a model to the bit-packed integer engine and serves it
//! over the length-prefixed TCP protocol in `adq_infer::serve`: a fixed
//! connection-worker pool multiplexes sockets, `--replicas` executor
//! threads share the packed weights and run batches concurrently, and
//! the request queue is bounded at `--queue-cap`: a request beyond it
//! gets a 503-style shed frame. The model is `--model vgg|resnet`
//! (default `vgg`) at `--arch tiny|small` (default `small`): a seeded
//! demo model at `--bits`, or, with `--checkpoint PATH`, the trained
//! model a run checkpoint holds (a `.ckpt` file, or a directory whose
//! latest file is taken, such as `adq quantize --save DIR` writes) —
//! pass the same `--model` / `--arch` / `--resolution` / `--classes` /
//! `--channels` the training run used.
//!
//! Port 0 picks an OS-assigned port; `--port-file` writes the bound
//! address there (same handshake as `ADQ_METRICS_PORT_FILE`), which is
//! how CI's smoke test finds the server. `ADQ_METRICS_ADDR` /
//! `ADQ_METRICS_PORT_FILE` additionally bind a Prometheus endpoint
//! exposing the `serve.*` gauges, counters and histograms.
//!
//! `--access-log PATH` attaches the request-lifecycle JSONL log: one
//! record per request (trace id, stage waterfall, outcome), a closing
//! summary with the `--exemplars K` slowest requests, analyzable with
//! `adq-report --serving PATH` and tailable with
//! `adq-watch --access-log PATH`. Logging is observation-only —
//! responses are byte-identical with and without it.
//!
//! `probe --burst N` opens N concurrent connections that fire
//! simultaneously — against a small `--queue-cap` this demonstrates
//! typed shed frames over the wire (`--expect-shed 1` turns "no request
//! was shed" into an error for CI).
//!
//! `load-gen` runs the serving benchmark fully in-process: it measures
//! the *unbatched float* model's forward pass on the same weights as the
//! baseline, then drives the batched integer server at each requested
//! concurrency level and replica count, and writes `bench_check`
//! records to `--out`. All latency statistics (`median_ns` == `p50_ns`,
//! `p90_ns`, `p99_ns`, `mean_ns`) are per-request over the merged
//! stream of every client's completions; `ns_per_request` is wall-clock
//! time over completed requests — the lower-is-better throughput metric
//! the bench gates compare. Each batched record additionally carries
//! server-side `queue_wait_p99_ns` and `exec_p99_ns`, recovered from a
//! per-level access log joined to the client's requests by echoed trace
//! ids, so `bench_check --key queue_wait_p99_ns` can gate queueing
//! regressions directly.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adq::core::checkpoint::{load_checkpoint, restore_model};
use adq::infer::compile::Graph;
use adq::infer::serve::{
    load_generate, load_generate_traced, stats_from_latencies, Client, LoadStats, Reply,
    ServeConfig, Server, TracedLoad,
};
use adq::infer::{CompileOptions, CompiledNet};
use adq::nn::{QuantModel, ResNet, Vgg};
use adq::quant::BitWidth;
use adq::telemetry::endpoint::MetricsEndpoint;
use adq::telemetry::lifecycle::{self, RequestRecord};
use adq::telemetry::metrics;
use adq::telemetry::AccessLog;
use adq::tensor::{init, Tensor};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        print_help();
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "serve" => cmd_serve(&flags),
        "probe" => cmd_probe(&flags),
        "shutdown" => cmd_shutdown(&flags),
        "load-gen" => cmd_load_gen(&flags),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `adq-serve help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        let Some(value) = iter.next() else {
            return Err(format!("flag --{name} needs a value"));
        };
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("flag --{name}: cannot parse `{raw}`")),
        None => Ok(default),
    }
}

/// `Vgg::{tiny, small}` and `ResNet::{tiny, small}`:
/// `(in_channels, input_hw, classes, seed)`.
type Ctor<M> = fn(usize, usize, usize, u64) -> M;

/// Builds the served model, `--model vgg|resnet` at `--arch tiny|small`,
/// and lowers it. Returns the float model too so `load-gen` can measure
/// the float baseline on identical weights.
fn build_model(flags: &Flags) -> Result<(Box<dyn QuantModel>, CompiledNet), String> {
    match flags.get("model").map_or("vgg", String::as_str) {
        "vgg" => lower(flags, Vgg::tiny, Vgg::small),
        "resnet" => lower(flags, ResNet::tiny, ResNet::small),
        other => Err(format!("flag --model: `{other}` is not vgg|resnet")),
    }
}

/// Without `--checkpoint`, the demo model: seeded, with every layer at
/// `--bits`. Deterministic, so `serve`, `probe` and `load-gen` agree on
/// weights. With `--checkpoint PATH` (a `.ckpt` file, or a directory
/// whose latest file is taken), the trained model restored onto a fresh
/// instance; the architecture flags must match the originating run, and
/// the construction seed is irrelevant because the restore overwrites
/// every parameter.
fn lower<M>(
    flags: &Flags,
    tiny: Ctor<M>,
    small: Ctor<M>,
) -> Result<(Box<dyn QuantModel>, CompiledNet), String>
where
    M: QuantModel + 'static,
    for<'a> &'a M: Into<Graph<'a>>,
{
    let seed: u64 = get(flags, "seed", 0)?;
    let resolution: usize = get(flags, "resolution", 16)?;
    let classes: usize = get(flags, "classes", 10)?;
    let channels: usize = get(flags, "channels", 3)?;
    let arch = flags.get("arch").map_or("small", String::as_str);
    let build = match arch {
        "tiny" => tiny,
        "small" => small,
        other => return Err(format!("flag --arch: unknown architecture `{other}`")),
    };
    let mut model = build(channels, resolution, classes, seed);
    match flags.get("checkpoint") {
        Some(path) => {
            let ckpt = load_checkpoint(Path::new(path))
                .map_err(|e| format!("cannot load checkpoint {path}: {e}"))?;
            restore_model(&mut model, &ckpt).map_err(|e| {
                format!(
                    "cannot restore {path} onto --model {} --arch {arch} --resolution \
                     {resolution} --classes {classes} --channels {channels}: {e}",
                    model.name()
                )
            })?;
            println!(
                "restored checkpoint {path} ({} completed iterations, bits {:?})",
                ckpt.iterations.len(),
                ckpt.bits
                    .iter()
                    .map(|b| b.map(|b| b.get()))
                    .collect::<Vec<_>>()
            );
        }
        None => {
            let bits = BitWidth::new(get(flags, "bits", 8)?).map_err(|e| e.to_string())?;
            for index in 0..model.layer_count() {
                model.set_bits_of(index, Some(bits));
            }
        }
    }
    let calibration = seeded_calibration(&model, flags)?;
    let compiled = CompiledNet::compile(&model, &calibration, CompileOptions::default())
        .map_err(|e| e.to_string())?;
    Ok((Box::new(model), compiled))
}

/// Post-training activation calibration for the serving binary: a seeded
/// normal batch at the model's input shape (`--calib-seed`,
/// `--calib-batch`). Deterministic, so every process lowering the same
/// weights with the same flags produces bit-identical range tables.
fn seeded_calibration(model: &dyn QuantModel, flags: &Flags) -> Result<Tensor, String> {
    let seed: u64 = get(flags, "calib-seed", get(flags, "seed", 0)?)?;
    let batch: usize = get(flags, "calib-batch", 16)?;
    let stats = model.layer_stats();
    let hw = stats[0].input_hw;
    let channels = stats[0].geom.as_ref().map_or(3, |g| g.in_channels);
    let mut rng = init::rng(seed ^ 0xCA11B8A7E);
    Ok(init::normal(&[batch, channels, hw, hw], 0.0, 1.0, &mut rng))
}

/// Batching, pool and admission settings: each flag left unset takes its
/// value from `ServeConfig::default()`.
fn serve_config(flags: &Flags) -> Result<ServeConfig, String> {
    let defaults = ServeConfig::default();
    let max_wait_ms: f64 = get(flags, "max-wait-ms", defaults.max_wait.as_secs_f64() * 1e3)?;
    if !(max_wait_ms >= 0.0 && max_wait_ms.is_finite()) {
        return Err(format!(
            "flag --max-wait-ms: `{max_wait_ms}` must be a finite number >= 0"
        ));
    }
    Ok(ServeConfig {
        max_batch: get(flags, "max-batch", defaults.max_batch)?,
        max_wait: Duration::from_secs_f64(max_wait_ms / 1000.0),
        conn_workers: get(flags, "conn-workers", defaults.conn_workers)?,
        replicas: get(flags, "replicas", defaults.replicas)?,
        queue_cap: get(flags, "queue-cap", defaults.queue_cap)?,
    })
}

fn required_addr(flags: &Flags) -> Result<SocketAddr, String> {
    let raw = flags
        .get("addr")
        .ok_or_else(|| "flag --addr HOST:PORT is required".to_string())?;
    raw.parse()
        .map_err(|_| format!("flag --addr: cannot parse `{raw}`"))
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let (_, compiled) = build_model(flags)?;
    let config = serve_config(flags)?;
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let compiled = Arc::new(compiled);
    println!(
        "model: {} inputs, {} classes, precisions {:?}",
        compiled.input_len(),
        compiled.classes(),
        compiled
            .precisions()
            .iter()
            .map(|p| p.bits())
            .collect::<Vec<_>>()
    );
    let access_log = match flags.get("access-log") {
        Some(path) => {
            let exemplars: usize = get(flags, "exemplars", lifecycle::DEFAULT_EXEMPLARS)?;
            let log = AccessLog::create(path, exemplars)
                .map_err(|e| format!("cannot create access log {path}: {e}"))?;
            println!("access log: {path} ({exemplars} tail exemplars)");
            Some(log)
        }
        None => None,
    };
    let mut server = Server::bind_logged(
        addr.as_str(),
        Arc::clone(&compiled) as _,
        config,
        access_log,
    )
    .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let bound = server.local_addr();
    println!(
        "serving on {bound} ({} replicas, {} conn workers, queue cap {}, \
         max batch {}, max wait {:?})",
        config.replicas.max(1),
        config.conn_workers.max(1),
        config.queue_cap.max(1),
        config.max_batch,
        config.max_wait
    );
    if let Some(port_file) = flags.get("port-file") {
        std::fs::write(port_file, bound.to_string())
            .map_err(|e| format!("cannot write {port_file}: {e}"))?;
    }
    // optional Prometheus endpoint, same env handshake as the bench bins
    let _endpoint = match std::env::var("ADQ_METRICS_ADDR") {
        Ok(metrics_addr) => match MetricsEndpoint::bind(&metrics_addr, metrics::global()) {
            Ok(endpoint) => {
                let metrics_bound = endpoint.local_addr();
                println!("(metrics endpoint listening on {metrics_bound})");
                if let Ok(path) = std::env::var("ADQ_METRICS_PORT_FILE") {
                    std::fs::write(&path, metrics_bound.to_string())
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                }
                Some(endpoint)
            }
            Err(err) => {
                eprintln!("warning: cannot bind metrics endpoint on {metrics_addr}: {err}");
                None
            }
        },
        Err(_) => None,
    };
    server.wait();
    println!("server stopped");
    Ok(())
}

fn cmd_probe(flags: &Flags) -> Result<(), String> {
    let addr = required_addr(flags)?;
    let burst: usize = get(flags, "burst", 0)?;
    if burst > 0 {
        return cmd_probe_burst(flags, addr, burst);
    }
    let requests: usize = get(flags, "requests", 3)?;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    client.ping().map_err(|e| format!("ping failed: {e}"))?;
    // the demo model is deterministic, so the probe recomputes the
    // expected input length and class count from the same flags
    let (_, compiled) = build_model(flags)?;
    let input_len = compiled.input_len();
    let mut rng = init::rng(get(flags, "probe-seed", 7u64)?);
    for i in 0..requests {
        let image = init::normal(&[1, 1, 1, input_len], 0.0, 1.0, &mut rng);
        let logits = client
            .infer(image.data())
            .map_err(|e| format!("request {i}: {e}"))?
            .into_result()
            .map_err(|msg| format!("request {i} refused: {msg}"))?;
        if logits.len() != compiled.classes() {
            return Err(format!(
                "request {i}: expected {} logits, got {}",
                compiled.classes(),
                logits.len()
            ));
        }
        if logits.iter().any(|v| !v.is_finite()) {
            return Err(format!("request {i}: non-finite logits"));
        }
    }
    println!(
        "probe ok: {requests} requests, {} logits each",
        compiled.classes()
    );
    Ok(())
}

/// Fires `burst` single-request clients at once. Against a server with a
/// small `--queue-cap` this drives admission control: some requests get
/// logits, the rest get typed shed frames — never a dropped connection
/// or a missing response.
fn cmd_probe_burst(flags: &Flags, addr: SocketAddr, burst: usize) -> Result<(), String> {
    let (_, compiled) = build_model(flags)?;
    let input_len = compiled.input_len();
    let classes = compiled.classes();
    let probe_seed: u64 = get(flags, "probe-seed", 7)?;
    let barrier = Arc::new(std::sync::Barrier::new(burst));
    let mut handles = Vec::with_capacity(burst);
    for worker in 0..burst {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || -> Result<Reply, String> {
            // connect first, then release the whole burst at once
            let mut client =
                Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
            let mut rng = init::rng(probe_seed ^ (worker as u64) << 16);
            let image = init::normal(&[1, 1, 1, input_len], 0.0, 1.0, &mut rng);
            barrier.wait();
            client
                .infer(image.data())
                .map_err(|e| format!("burst request {worker}: {e}"))
        }));
    }
    let (mut ok, mut shed) = (0usize, 0usize);
    for handle in handles {
        let reply = handle
            .join()
            .map_err(|_| "burst worker panicked".to_string())??;
        match reply {
            Reply::Logits(logits) => {
                if logits.len() != classes {
                    return Err(format!("expected {classes} logits, got {}", logits.len()));
                }
                ok += 1;
            }
            Reply::Shed(_) => shed += 1,
            Reply::Refused(msg) => return Err(format!("burst request refused: {msg}")),
        }
    }
    println!("burst of {burst}: {ok} answered, {shed} shed, every request got a typed response");
    if ok == 0 {
        return Err("burst: no request was answered".to_string());
    }
    if get(flags, "expect-shed", 0usize)? > 0 && shed == 0 {
        return Err("burst: expected at least one shed response, saw none".to_string());
    }
    Ok(())
}

fn cmd_shutdown(flags: &Flags) -> Result<(), String> {
    let addr = required_addr(flags)?;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    client
        .shutdown_server()
        .map_err(|e| format!("shutdown failed: {e}"))?;
    println!("shutdown acknowledged");
    Ok(())
}

/// Measures the unbatched float model: one `forward` call per request
/// on a single-image tensor.
fn float_unbatched_baseline(
    model: &mut dyn QuantModel,
    requests: usize,
    seed: u64,
) -> Result<LoadStats, String> {
    let stats = model.layer_stats();
    let hw = stats[0].input_hw;
    let channels = stats[0].geom.as_ref().map_or(3, |g| g.in_channels);
    let mut rng = init::rng(seed ^ 0xF10A7);
    let mut latencies = Vec::with_capacity(requests);
    let started = Instant::now();
    for _ in 0..requests {
        let image = init::normal(&[1, channels, hw, hw], 0.0, 1.0, &mut rng);
        let sent = Instant::now();
        let logits = model.forward(&image, false);
        assert!(!logits.is_empty());
        latencies.push(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let elapsed = started.elapsed();
    Ok(stats_from_latencies(1, latencies, 0, 0, elapsed))
}

fn record_json(name: &str, stats: &LoadStats) -> String {
    format!(
        concat!(
            "  {{\"name\": \"{}\", \"median_ns\": {}, \"mean_ns\": {}, ",
            "\"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, ",
            "\"ns_per_request\": {}, \"throughput_rps\": {:.2}, ",
            "\"concurrency\": {}, \"requests\": {}, \"shed\": {}}}"
        ),
        name,
        stats.median_ns(),
        stats.mean_ns,
        stats.p50_ns,
        stats.p90_ns,
        stats.p99_ns,
        stats.ns_per_request(),
        stats.throughput_rps(),
        stats.concurrency,
        stats.requests,
        stats.shed
    )
}

/// [`record_json`] plus the server-side stage percentiles recovered from
/// the access log via echoed trace ids — the keys `bench_check` gates
/// with `--key queue_wait_p99_ns`.
fn record_json_traced(
    name: &str,
    stats: &LoadStats,
    queue_wait_p99_ns: u64,
    exec_p99_ns: u64,
) -> String {
    let base = record_json(name, stats);
    format!(
        "{}, \"queue_wait_p99_ns\": {queue_wait_p99_ns}, \"exec_p99_ns\": {exec_p99_ns}}}",
        base.strip_suffix('}').expect("record ends with a brace")
    )
}

fn cmd_load_gen(flags: &Flags) -> Result<(), String> {
    let (mut model, compiled) = build_model(flags)?;
    // --replicas is a sweep list here (not a single count as in `serve`);
    // the per-level server overrides ServeConfig::replicas anyway
    let mut scalar_flags = flags.clone();
    scalar_flags.remove("replicas");
    let config = serve_config(&scalar_flags)?;
    let requests: usize = get(flags, "requests", 64)?;
    let seed: u64 = get(flags, "seed", 0)?;
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_serving.json".to_string());
    let parse_list = |name: &str, default: &str| -> Result<Vec<usize>, String> {
        flags
            .get(name)
            .map(String::as_str)
            .unwrap_or(default)
            .split(',')
            .map(|c| {
                c.trim()
                    .parse()
                    .map_err(|_| format!("flag --{name}: cannot parse `{c}`"))
            })
            .collect()
    };
    let concurrency = parse_list("concurrency", "1,4")?;
    let replicas = parse_list("replicas", "1")?;

    // the slow scalar baseline gets a smaller (but still exact) sample
    let baseline_requests = (requests / 4).max(8);
    println!("measuring float unbatched baseline ({baseline_requests} requests)...");
    let baseline = float_unbatched_baseline(model.as_mut(), baseline_requests, seed)?;
    println!(
        "  float_unbatched: {:.1} req/s, p50 {:.2} ms, p99 {:.2} ms",
        baseline.throughput_rps(),
        baseline.p50_ns as f64 / 1e6,
        baseline.p99_ns as f64 / 1e6
    );

    let compiled = Arc::new(compiled);
    let input_len = compiled.input_len();
    let mut records = vec![record_json("serving/float_unbatched", &baseline)];
    let mut speedups = Vec::new();
    let run_level = |server_addr: SocketAddr, c: usize| -> Result<TracedLoad, String> {
        // warm up the packing scratch and branch predictors off-record
        load_generate(server_addr, c, 4, input_len).map_err(|e| e.to_string())?;
        let traced =
            load_generate_traced(server_addr, c, requests, input_len).map_err(|e| e.to_string())?;
        if traced.stats.errors > 0 {
            return Err(format!(
                "load-gen at concurrency {c}: {} errors",
                traced.stats.errors
            ));
        }
        Ok(traced)
    };

    for (i, &r) in replicas.iter().enumerate() {
        let level_config = ServeConfig {
            replicas: r,
            ..config
        };
        // each level's server keeps a throwaway access log so the records
        // can carry *server-side* stage percentiles, joined to this
        // client's requests by the echoed trace ids
        let log_path = std::env::temp_dir().join(format!(
            "adq_loadgen_access_{}_{r}.jsonl",
            std::process::id()
        ));
        let log = AccessLog::create(&log_path, lifecycle::DEFAULT_EXEMPLARS)
            .map_err(|e| format!("cannot create load-gen access log: {e}"))?;
        let mut server = Server::bind_logged(
            "127.0.0.1:0",
            Arc::clone(&compiled) as _,
            level_config,
            Some(log),
        )
        .map_err(|e| format!("cannot bind load-gen server: {e}"))?;
        let addr = server.local_addr();
        // the first replica count sweeps every concurrency level (the
        // committed per-concurrency records); additional counts measure
        // replica scaling at the highest concurrency only
        let levels: &[usize] = if i == 0 {
            &concurrency
        } else {
            std::slice::from_ref(concurrency.iter().max().expect("non-empty concurrency"))
        };
        let mut measured: Vec<(String, TracedLoad)> = Vec::new();
        for &c in levels {
            let traced = run_level(addr, c)?;
            let name = if i == 0 {
                format!("serving/int8_batched_c{c}")
            } else {
                format!("serving/int8_batched_c{c}_r{r}")
            };
            let speedup = baseline.ns_per_request() as f64 / traced.stats.ns_per_request() as f64;
            println!(
                "  {}: {:.1} req/s, p50 {:.2} ms, p99 {:.2} ms, {} shed ({speedup:.1}x vs float unbatched)",
                name.trim_start_matches("serving/"),
                traced.stats.throughput_rps(),
                traced.stats.p50_ns as f64 / 1e6,
                traced.stats.p99_ns as f64 / 1e6,
                traced.stats.shed
            );
            speedups.push(speedup);
            measured.push((name, traced));
        }
        // shutdown joins the service threads and closes the log (summary
        // line + flush), so the read below sees every record
        server.shutdown();
        let view = lifecycle::read_records(&log_path)
            .map_err(|e| format!("cannot read load-gen access log: {e}"))?;
        let by_trace: HashMap<u64, &RequestRecord> =
            view.records.iter().map(|rec| (rec.trace_id, rec)).collect();
        for (name, traced) in &measured {
            let level_records: Vec<&RequestRecord> = traced
                .trace_ids
                .iter()
                .filter_map(|id| by_trace.get(id).copied())
                .collect();
            let mut queue: Vec<u64> = level_records.iter().map(|rec| rec.queue_wait_ns).collect();
            let mut exec: Vec<u64> = level_records.iter().map(|rec| rec.exec_ns).collect();
            let q99 = lifecycle::exact_quantile_ns(&mut queue, 0.99);
            let e99 = lifecycle::exact_quantile_ns(&mut exec, 0.99);
            records.push(record_json_traced(name, &traced.stats, q99, e99));
        }
        std::fs::remove_file(&log_path).ok();
    }

    // the servers ran in-process, so their executor metrics are ours
    let batch_runs = metrics::global().histogram("serve.batch_run_ns");
    let served = metrics::global().counter("serve.requests").get();
    if batch_runs.count() > 0 {
        println!(
            "  executors: {} batches for {} requests (avg {:.1}/batch), batch compute p50 {:.2} ms",
            batch_runs.count(),
            served,
            served as f64 / batch_runs.count() as f64,
            batch_runs.quantile(0.5) / 1e6
        );
    }

    let json = format!("[\n{}\n]\n", records.join(",\n"));
    std::fs::write(&out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    let best = speedups.iter().cloned().fold(0.0f64, f64::max);
    println!("best batched speedup over float unbatched: {best:.1}x");
    Ok(())
}

fn print_help() {
    let defaults = ServeConfig::default();
    println!(
        "adq-serve — scaled-out integer inference server\n\
         \n\
         usage: adq-serve <command> [flags]   (defaults in parentheses)\n\
         \n\
         commands:\n\
         \x20 serve      lower a model to the integer engine and serve it over TCP\n\
         \x20            --addr 127.0.0.1:0  --port-file PATH\n\
         \x20            --replicas N ({replicas})  --conn-workers N ({conn_workers})\n\
         \x20            --queue-cap N ({queue_cap})   (beyond it: shed frames)\n\
         \x20            --max-batch N ({max_batch})  --max-wait-ms MS ({max_wait_ms})\n\
         \x20            --access-log PATH  --exemplars K\n\
         \x20            --model vgg|resnet (vgg)  --arch tiny|small (small)\n\
         \x20            --checkpoint FILE.ckpt|DIR  --channels C\n\
         \x20            --seed S  --resolution R  --classes K  --bits B\n\
         \x20 probe      send a few inference requests, check the responses\n\
         \x20            --addr HOST:PORT  --requests N\n\
         \x20            --burst N  --expect-shed 0|1   (overload drill)\n\
         \x20 shutdown   ask a running server to drain and stop\n\
         \x20            --addr HOST:PORT\n\
         \x20 load-gen   in-process serving benchmark -> BENCH_serving.json\n\
         \x20            --concurrency 1,4  --replicas 1,2,4  --requests N\n\
         \x20            --out FILE.json\n\
         \x20 help       this message",
        replicas = defaults.replicas,
        conn_workers = defaults.conn_workers,
        queue_cap = defaults.queue_cap,
        max_batch = defaults.max_batch,
        max_wait_ms = defaults.max_wait.as_secs_f64() * 1e3,
    );
}
