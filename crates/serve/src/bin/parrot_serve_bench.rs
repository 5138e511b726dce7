//! `parrot-serve-bench` — open/closed-loop load generator for
//! `parrot-serve`.
//!
//! Each simulated client runs on its own scoped thread with its own
//! connection and returns its stats when done. Clients derive the *same*
//! deterministic tenant fleet as the daemon from the same flags, which
//! lets them verify every NPU-path reply bit-for-bit against
//! `NpuConfig::evaluate` without configs ever crossing the wire.
//!
//! `--compare` measures a serial baseline (one client, window 1 — every
//! request pays the full round trip and a lone batch) before the
//! batch-friendly run, and reports the throughput ratio. Results land
//! as a schema-v6 `RunReport` (default `results/serve_baseline.json`)
//! whose `serving` section is the daemon's own final accounting,
//! fetched through the protocol's `Stats` request.

use npu::NpuConfig;
use serve::cli::{die, fleet_flag, take_parsed, take_value, FLEET_USAGE};
use serve::fleet::{derive_fleet, request_inputs, FleetOptions};
use serve::proto::{InvokeMode, Reply, Request};
use serve::server::Listen;
use serve::Client;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use telemetry::{Histogram, Level, PhaseTiming, RunReport, ServingSummary};

const USAGE: &str = "\
parrot-serve-bench [flags]

  --connect ADDR       daemon address (default tcp:127.0.0.1:7411)
  --mode closed|open   closed-loop (windowed) or open-loop (paced) load
                       (default closed)
  --clients N          concurrent clients (default 8)
  --window W           outstanding requests per closed-loop client (default 8)
  --requests N         requests per client (default 500)
  --rate R             open loop: total target requests/s (default 20000)
  --precise-every N    every Nth request asks for precise offload (0 = never)
  --deadline-us T      per-request deadline (0 = server default)
  --serial             shorthand for --clients 1 --window 1
  --compare            run a serial baseline first and report the speedup
  --serial-requests N  requests in the serial baseline (default 200)
  --no-verify          skip bit-identity checks against local evaluate
  --shutdown           send Shutdown to the daemon when done
  --out FILE           RunReport path (default results/serve_baseline.json)
  --log-level LEVEL    off|error|warn|info|debug|trace (default off)
FLEET";

fn usage() -> ! {
    eprintln!("{}", USAGE.replace("FLEET", FLEET_USAGE));
    std::process::exit(2);
}

#[derive(Clone)]
struct LoadSpec {
    addr: Listen,
    fleet: FleetOptions,
    open: bool,
    window: usize,
    requests: u64,
    rate_per_client: f64,
    precise_every: u64,
    deadline_us: u64,
    verify: bool,
}

#[derive(Default)]
struct ClientStats {
    completed: u64,
    npu: u64,
    precise: u64,
    rejected: u64,
    timed_out: u64,
    errors: u64,
    mismatches: u64,
    latencies_us: Vec<u64>,
}

struct InFlight {
    tenant_idx: usize,
    inputs: Vec<f32>,
    sent: Instant,
    mode: InvokeMode,
}

/// One client's whole life: connect, pump `requests` invocations,
/// return its stats. Deterministic request content; wall-clock
/// timing only affects latency samples.
fn run_client(client_id: usize, spec: &LoadSpec) -> Result<ClientStats, String> {
    let fleet = derive_fleet(&spec.fleet);
    let configs: Vec<(String, NpuConfig)> = fleet.into_iter().map(|t| (t.name, t.config)).collect();
    let n_in = configs[0].1.topology().inputs();
    let n_tenants = configs.len();

    let mut client =
        Client::connect(&spec.addr).map_err(|e| format!("client {client_id}: connect: {e}"))?;
    if spec.open {
        client
            .set_read_timeout(Some(Duration::from_micros(200)))
            .map_err(|e| format!("client {client_id}: timeout: {e}"))?;
    }

    let mut stats = ClientStats::default();
    let mut in_flight: HashMap<u64, InFlight> = HashMap::new();
    let mut next: u64 = 0;
    let start = Instant::now();
    let send_gap = if spec.rate_per_client > 0.0 {
        Duration::from_secs_f64(1.0 / spec.rate_per_client)
    } else {
        Duration::ZERO
    };

    let build_and_send = |client: &mut Client,
                          in_flight: &mut HashMap<u64, InFlight>,
                          i: u64|
     -> Result<(), String> {
        let tenant_idx = (client_id + i as usize) % n_tenants;
        let inputs = request_inputs(
            spec.fleet.seed,
            tenant_idx,
            (client_id as u64) << 32 | i,
            n_in,
        );
        let mode = if spec.precise_every > 0 && i.is_multiple_of(spec.precise_every) {
            InvokeMode::Precise
        } else {
            InvokeMode::Npu
        };
        let request_id = (client_id as u64) << 32 | i;
        client
            .send(&Request::Invoke {
                tenant: configs[tenant_idx].0.clone(),
                request_id,
                deadline_us: spec.deadline_us,
                mode,
                inputs: inputs.clone(),
            })
            .map_err(|e| format!("client {client_id}: send: {e}"))?;
        in_flight.insert(
            request_id,
            InFlight {
                tenant_idx,
                inputs,
                sent: Instant::now(),
                mode,
            },
        );
        Ok(())
    };

    // Reply handling shared by both loop shapes. Returns the ids of
    // requests that were rejected and should be resent (closed loop).
    let on_reply = |reply: Reply,
                    in_flight: &mut HashMap<u64, InFlight>,
                    stats: &mut ClientStats|
     -> Option<u64> {
        match reply {
            Reply::Outputs {
                request_id,
                precise,
                outputs,
                ..
            } => {
                let Some(fl) = in_flight.remove(&request_id) else {
                    stats.errors += 1;
                    return None;
                };
                stats.completed += 1;
                stats
                    .latencies_us
                    .push(fl.sent.elapsed().as_micros() as u64);
                if precise {
                    stats.precise += 1;
                } else {
                    stats.npu += 1;
                    if spec.verify {
                        // The NPU path must be bit-identical to a local
                        // NpuConfig::evaluate of the same derived config.
                        let expected = configs[fl.tenant_idx].1.evaluate(&fl.inputs);
                        let same = expected.len() == outputs.len()
                            && expected
                                .iter()
                                .zip(&outputs)
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                        if !same {
                            stats.mismatches += 1;
                        }
                    }
                }
                // Precise replies for NPU-mode requests are legitimate
                // (budget degradation); the reverse is a server bug.
                if !precise && fl.mode == InvokeMode::Precise {
                    stats.errors += 1;
                }
                None
            }
            Reply::Rejected { request_id, .. } => {
                stats.rejected += 1;
                Some(request_id)
            }
            Reply::TimedOut { request_id } => {
                in_flight.remove(&request_id);
                stats.timed_out += 1;
                None
            }
            Reply::Error { request_id, .. } => {
                in_flight.remove(&request_id);
                stats.errors += 1;
                None
            }
            _ => {
                stats.errors += 1;
                None
            }
        }
    };

    if spec.open {
        // Open loop: send on a fixed schedule regardless of replies,
        // polling for replies between sends. Backpressure rejections
        // are dropped (an open-loop source does not retry).
        while next < spec.requests {
            let due = start + send_gap.mul_f64(next as f64);
            loop {
                match client.try_recv() {
                    Ok(Some(reply)) => {
                        on_reply(reply, &mut in_flight, &mut stats);
                    }
                    Ok(None) => {}
                    Err(e) => return Err(format!("client {client_id}: recv: {e}")),
                }
                if Instant::now() >= due {
                    break;
                }
            }
            build_and_send(&mut client, &mut in_flight, next)?;
            next += 1;
        }
        // Drain until all outstanding requests resolved or the server
        // has clearly gone quiet.
        let drain_deadline = Instant::now() + Duration::from_secs(10);
        while !in_flight.is_empty() && Instant::now() < drain_deadline {
            match client.try_recv() {
                Ok(Some(reply)) => {
                    let resend = on_reply(reply, &mut in_flight, &mut stats);
                    if let Some(id) = resend {
                        in_flight.remove(&id);
                    }
                }
                Ok(None) => {}
                Err(e) => return Err(format!("client {client_id}: drain: {e}")),
            }
        }
        stats.errors += in_flight.len() as u64;
    } else {
        // Closed loop: keep `window` requests outstanding; every reply
        // immediately frees a slot for the next send. Rejected requests
        // are resent after the server's retry hint.
        while next < spec.requests || !in_flight.is_empty() {
            while in_flight.len() < spec.window && next < spec.requests {
                build_and_send(&mut client, &mut in_flight, next)?;
                next += 1;
            }
            let reply = client
                .recv()
                .map_err(|e| format!("client {client_id}: recv: {e}"))?;
            if let Some(request_id) = on_reply(reply, &mut in_flight, &mut stats) {
                // Retry the rejected request in place (same id, same
                // inputs), honouring the back-off hint loosely.
                std::thread::sleep(Duration::from_micros(200));
                let fl = in_flight
                    .get(&request_id)
                    .ok_or_else(|| format!("client {client_id}: rejected unknown id"))?;
                client
                    .send(&Request::Invoke {
                        tenant: configs[fl.tenant_idx].0.clone(),
                        request_id,
                        deadline_us: spec.deadline_us,
                        mode: fl.mode,
                        inputs: fl.inputs.clone(),
                    })
                    .map_err(|e| format!("client {client_id}: resend: {e}"))?;
            }
        }
    }
    Ok(stats)
}

/// Runs one load phase: `clients` concurrent client threads, merged
/// stats + wall time back.
fn run_phase(clients: usize, spec: &LoadSpec) -> (ClientStats, Histogram, u64) {
    let t0 = Instant::now();
    let results: Vec<Result<ClientStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || run_client(c, spec)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_us = t0.elapsed().as_micros() as u64;

    let mut merged = ClientStats::default();
    let mut latency = Histogram::default();
    for r in results {
        match r {
            Ok(s) => {
                merged.completed += s.completed;
                merged.npu += s.npu;
                merged.precise += s.precise;
                merged.rejected += s.rejected;
                merged.timed_out += s.timed_out;
                merged.errors += s.errors;
                merged.mismatches += s.mismatches;
                for l in s.latencies_us {
                    latency.observe(l as f64);
                }
            }
            Err(e) => {
                eprintln!("client failed: {e}");
                merged.errors += 1;
            }
        }
    }
    (merged, latency, wall_us)
}

fn throughput_rps(completed: u64, wall_us: u64) -> f64 {
    if wall_us == 0 {
        0.0
    } else {
        completed as f64 * 1e6 / wall_us as f64
    }
}

fn main() {
    let mut connect = "tcp:127.0.0.1:7411".to_string();
    let mut fleet_opts = FleetOptions::default();
    let mut open = false;
    let mut clients = 8usize;
    let mut window = 8usize;
    let mut requests = 500u64;
    let mut rate = 20_000.0f64;
    let mut precise_every = 0u64;
    let mut deadline_us = 0u64;
    let mut compare = false;
    let mut serial_requests = 200u64;
    let mut verify = true;
    let mut shutdown = false;
    let mut out = PathBuf::from("results/serve_baseline.json");
    let mut log_level = Level::Off;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if fleet_flag(&arg, &mut args, &mut fleet_opts) {
            continue;
        }
        match arg.as_str() {
            "--connect" => connect = take_value(&mut args, "--connect"),
            "--mode" => match take_value(&mut args, "--mode").as_str() {
                "closed" => open = false,
                "open" => open = true,
                other => die(&format!("--mode: closed or open, not {other:?}")),
            },
            "--clients" => clients = take_parsed(&mut args, "--clients"),
            "--window" => window = take_parsed(&mut args, "--window"),
            "--requests" => requests = take_parsed(&mut args, "--requests"),
            "--rate" => rate = take_parsed(&mut args, "--rate"),
            "--precise-every" => precise_every = take_parsed(&mut args, "--precise-every"),
            "--deadline-us" => deadline_us = take_parsed(&mut args, "--deadline-us"),
            "--serial" => {
                clients = 1;
                window = 1;
            }
            "--compare" => compare = true,
            "--serial-requests" => serial_requests = take_parsed(&mut args, "--serial-requests"),
            "--no-verify" => verify = false,
            "--shutdown" => shutdown = true,
            "--out" => out = PathBuf::from(take_value(&mut args, "--out")),
            "--log-level" => {
                let v = take_value(&mut args, "--log-level");
                log_level =
                    Level::parse(&v).unwrap_or_else(|| die(&format!("unknown log level {v:?}")));
            }
            "--help" | "-h" => usage(),
            other => die(&format!("unknown flag {other} (try --help)")),
        }
    }
    if log_level > Level::Off {
        telemetry::install_stderr_sink();
    }
    telemetry::set_level(log_level);

    let addr = Listen::parse(&connect).unwrap_or_else(|e| die(&e));
    if clients == 0 || window == 0 {
        die("--clients and --window must be positive");
    }
    let spec = LoadSpec {
        addr: addr.clone(),
        fleet: fleet_opts.clone(),
        open,
        window,
        requests,
        rate_per_client: if open { rate / clients as f64 } else { 0.0 },
        precise_every,
        deadline_us,
        verify,
    };

    // Sanity: the daemon is up and speaks our protocol version.
    let mut probe = Client::connect(&addr).unwrap_or_else(|e| {
        die(&format!(
            "connect {connect}: {e} (is parrot-serve running?)"
        ))
    });
    match probe.call(&Request::Ping) {
        Ok(Reply::Pong) => {}
        Ok(other) => die(&format!("unexpected ping reply: {other:?}")),
        Err(e) => die(&format!("ping: {e}")),
    }

    let mode_name = if compare {
        "compare"
    } else if open {
        "open"
    } else {
        "closed"
    };
    let mut report = RunReport::new("serve", "serve_baseline", mode_name);
    let t_total = Instant::now();

    // Serial baseline: one client, one outstanding request — every
    // invocation pays the full round trip plus a lone flush.
    let mut serial_rps = 0.0;
    if compare {
        let serial_spec = LoadSpec {
            open: false,
            window: 1,
            requests: serial_requests,
            ..spec.clone()
        };
        let (stats, latency, wall_us) = run_phase(1, &serial_spec);
        serial_rps = throughput_rps(stats.completed, wall_us);
        println!(
            "serial   : {:>7} completed in {:>7.1} ms -> {:>9.0} req/s (p50 {:.0}us p99 {:.0}us)",
            stats.completed,
            wall_us as f64 / 1e3,
            serial_rps,
            latency.p50(),
            latency.p99()
        );
        report.push_phase(PhaseTiming {
            name: "serial".to_string(),
            elapsed_us: wall_us,
        });
        report.push_distribution("bench.latency_us.serial", &latency);
        report
            .metrics
            .set_gauge("serve.bench.throughput_rps.serial", serial_rps);
        if stats.mismatches > 0 {
            die(&format!(
                "{} serial replies were not bit-identical to local evaluate",
                stats.mismatches
            ));
        }
    }

    // The measured (batch-friendly) run.
    let (stats, latency, wall_us) = run_phase(clients, &spec);
    let rps = throughput_rps(stats.completed, wall_us);
    println!(
        "{:<9}: {:>7} completed in {:>7.1} ms -> {:>9.0} req/s (p50 {:.0}us p99 {:.0}us)",
        if open { "open" } else { "closed" },
        stats.completed,
        wall_us as f64 / 1e3,
        rps,
        latency.p50(),
        latency.p99()
    );
    println!(
        "           npu {} / precise {} / rejected {} / timed out {} / errors {} / mismatches {}",
        stats.npu, stats.precise, stats.rejected, stats.timed_out, stats.errors, stats.mismatches
    );
    report.push_phase(PhaseTiming {
        name: "batched".to_string(),
        elapsed_us: wall_us,
    });
    report.push_distribution("bench.latency_us.batched", &latency);
    report
        .metrics
        .set_gauge("serve.bench.throughput_rps.batched", rps);
    report
        .metrics
        .add("serve.bench.mismatches", stats.mismatches);
    report
        .metrics
        .add("serve.bench.client_errors", stats.errors);
    if compare && serial_rps > 0.0 {
        let speedup = rps / serial_rps;
        println!("speedup  : {speedup:.2}x over single-request-at-a-time");
        report
            .metrics
            .set_gauge("serve.bench.speedup_vs_serial", speedup);
    }

    // The daemon's own accounting becomes the report's serving section.
    match probe.call(&Request::Stats) {
        Ok(Reply::Stats { json }) => match serde::json::from_str::<ServingSummary>(&json) {
            Ok(summary) => {
                println!(
                    "server   : {} batches, mean occupancy {:.2}, fairness {:.4}, {} context switches",
                    summary.batches,
                    summary.batch_occupancy_mean,
                    summary.fairness_index,
                    summary.context_switches
                );
                report.serving = summary;
                report.serving.export(&mut report.metrics, "serving");
            }
            Err(e) => eprintln!("warning: stats reply did not parse: {e}"),
        },
        Ok(other) => eprintln!("warning: unexpected stats reply: {other:?}"),
        Err(e) => eprintln!("warning: stats: {e}"),
    }

    if shutdown {
        match probe.call(&Request::Shutdown) {
            Ok(Reply::ShutdownAck) => println!("daemon acknowledged shutdown"),
            Ok(other) => eprintln!("warning: unexpected shutdown reply: {other:?}"),
            Err(e) => eprintln!("warning: shutdown: {e}"),
        }
    }

    report.wall_clock_us = t_total.elapsed().as_micros() as u64;
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    std::fs::write(&out, report.to_json())
        .unwrap_or_else(|e| die(&format!("--out {}: {e}", out.display())));
    println!("report written to {}", out.display());
    telemetry::flush_sinks();

    if stats.mismatches > 0 {
        die(&format!(
            "{} replies were not bit-identical to local evaluate",
            stats.mismatches
        ));
    }
}
