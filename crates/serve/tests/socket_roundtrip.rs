//! End-to-end tests over a real socket: an in-process daemon on an
//! ephemeral TCP port, a protocol client, and the full request →
//! batch → reply path.

use serve::engine::{Engine, EngineConfig};
use serve::fleet::{derive_fleet, request_inputs, FleetOptions};
use serve::proto::{write_frame, ErrorCode, InvokeMode, Reply, Request};
use serve::server::{Listen, RunStats, Server};
use serve::Client;
use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn small_fleet() -> FleetOptions {
    FleetOptions {
        tenants: 2,
        seed: 11,
        layers: vec![4, 8, 2],
        ..FleetOptions::default()
    }
}

/// Starts an in-process daemon on an ephemeral port; returns its
/// address and the join handle delivering the final stats.
fn start_daemon(opts: &FleetOptions) -> (Listen, JoinHandle<RunStats>) {
    start_daemon_with(opts, EngineConfig::default())
}

fn start_daemon_with(opts: &FleetOptions, cfg: EngineConfig) -> (Listen, JoinHandle<RunStats>) {
    let engine = Engine::new(cfg, derive_fleet(opts));
    let serve_opts = serve::server::ServeOptions {
        listen: Listen::Tcp("127.0.0.1:0".to_string()),
        batch_window_us: 500,
        reap_period_us: 1_000,
    };
    let server = Server::bind(&serve_opts, engine).expect("bind ephemeral port");
    let addr = server.local();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn shutdown(addr: &Listen) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    match c.call(&Request::Shutdown) {
        Ok(Reply::ShutdownAck) => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
}

#[test]
fn invocations_round_trip_bit_identically_over_the_socket() {
    let opts = small_fleet();
    let (addr, handle) = start_daemon(&opts);
    let reference = derive_fleet(&opts);

    let mut client = Client::connect(&addr).expect("connect");
    assert!(matches!(client.call(&Request::Ping), Ok(Reply::Pong)));

    // Pipeline a window of invocations across both tenants, then
    // collect and verify each reply against a local evaluate.
    let n = 12u64;
    for req in 0..n {
        let tenant = (req % 2) as usize;
        client
            .send(&Request::Invoke {
                tenant: format!("t{tenant}"),
                request_id: req,
                deadline_us: 0,
                mode: InvokeMode::Npu,
                inputs: request_inputs(opts.seed, tenant, req, 4),
            })
            .expect("send");
    }
    let mut seen = 0;
    for _ in 0..n {
        match client.recv().expect("recv") {
            Reply::Outputs {
                request_id,
                precise,
                outputs,
                ..
            } => {
                assert!(!precise);
                let tenant = (request_id % 2) as usize;
                let expected = reference[tenant]
                    .config
                    .evaluate(&request_inputs(opts.seed, tenant, request_id, 4));
                let expected_bits: Vec<u32> = expected.iter().map(|v| v.to_bits()).collect();
                let got_bits: Vec<u32> = outputs.iter().map(|v| v.to_bits()).collect();
                assert_eq!(expected_bits, got_bits, "request {request_id}");
                seen += 1;
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert_eq!(seen, n);

    // The stats request returns the server's own accounting as JSON.
    match client.call(&Request::Stats).expect("stats") {
        Reply::Stats { json } => {
            let summary: telemetry::ServingSummary =
                serde::json::from_str(&json).expect("summary parses");
            assert_eq!(summary.completed, n);
            assert_eq!(summary.npu_served, n);
            assert_eq!(summary.protocol_errors, 0);
            assert!(summary.batches >= 1);
        }
        other => panic!("unexpected stats reply: {other:?}"),
    }

    shutdown(&addr);
    let stats = handle.join().expect("join");
    assert_eq!(stats.summary.completed, n);
}

#[test]
fn every_pipelined_request_gets_exactly_one_reply() {
    // Each connection pipelines windows of full 16-lane batches into its
    // own tenant, so the batcher flushes while readers are still
    // submitting. A reply routed only after the flush completed would be
    // dropped and show up here as a missing request id.
    const CONNS: usize = 4;
    const ROUNDS: u64 = 60;
    const WINDOW: u64 = 4 * ann::LANES as u64;
    let opts = FleetOptions {
        tenants: CONNS,
        ..small_fleet()
    };
    let cfg = EngineConfig {
        quantum: ann::LANES as u64,
        ..EngineConfig::default()
    };
    let (addr, handle) = start_daemon_with(&opts, cfg);

    let clients: Vec<_> = (0..CONNS)
        .map(|tenant| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_millis(50)))
                    .expect("read timeout");
                let mut replies: HashMap<u64, u32> = HashMap::new();
                for round in 0..ROUNDS {
                    for req in round * WINDOW..(round + 1) * WINDOW {
                        client
                            .send(&Request::Invoke {
                                tenant: format!("t{tenant}"),
                                request_id: req,
                                deadline_us: 0,
                                mode: InvokeMode::Npu,
                                inputs: request_inputs(11, tenant, req, 4),
                            })
                            .expect("send");
                    }
                    // Collect this window; a lost reply ends the wait
                    // after a grace period instead of hanging the test.
                    let deadline = Instant::now() + Duration::from_secs(1);
                    let mut got = 0;
                    while got < WINDOW && Instant::now() < deadline {
                        match client.try_recv().expect("recv") {
                            Some(Reply::Outputs { request_id, .. }) => {
                                *replies.entry(request_id).or_default() += 1;
                                got += 1;
                            }
                            Some(other) => panic!("unexpected reply: {other:?}"),
                            None => {}
                        }
                    }
                }
                replies
            })
        })
        .collect();

    for (tenant, c) in clients.into_iter().enumerate() {
        let replies = c.join().expect("client thread");
        let lost: Vec<u64> = (0..ROUNDS * WINDOW)
            .filter(|id| !replies.contains_key(id))
            .collect();
        assert!(lost.is_empty(), "tenant t{tenant} lost replies {lost:?}");
        assert!(
            replies.values().all(|&n| n == 1),
            "tenant t{tenant} got a duplicate reply"
        );
    }

    shutdown(&addr);
    let stats = handle.join().expect("join");
    assert_eq!(stats.summary.completed, CONNS as u64 * ROUNDS * WINDOW);
}

#[test]
fn validation_failures_answer_with_precise_error_codes() {
    let opts = small_fleet();
    let (addr, handle) = start_daemon(&opts);

    let mut client = Client::connect(&addr).expect("connect");
    let reply = client
        .call(&Request::Invoke {
            tenant: "ghost".to_string(),
            request_id: 5,
            deadline_us: 0,
            mode: InvokeMode::Npu,
            inputs: vec![0.0; 4],
        })
        .expect("call");
    match reply {
        Reply::Error {
            request_id, code, ..
        } => {
            assert_eq!(request_id, 5);
            assert_eq!(code, ErrorCode::UnknownTenant);
        }
        other => panic!("unexpected reply: {other:?}"),
    }

    let reply = client
        .call(&Request::Invoke {
            tenant: "t0".to_string(),
            request_id: 6,
            deadline_us: 0,
            mode: InvokeMode::Npu,
            inputs: vec![0.0; 3],
        })
        .expect("call");
    assert!(matches!(
        reply,
        Reply::Error {
            request_id: 6,
            code: ErrorCode::BadDimensions,
            ..
        }
    ));

    shutdown(&addr);
    handle.join().expect("join");
}

#[test]
fn malformed_frames_get_an_error_reply_and_count_as_protocol_errors() {
    let opts = small_fleet();
    let (addr, handle) = start_daemon(&opts);

    // A well-framed payload that is not a valid message (bad version).
    let mut client = Client::connect(&addr).expect("connect");
    write_frame(client.stream_mut(), &[0xff, 0xff, 0x01]).expect("write garbage");
    match client.recv().expect("recv error reply") {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("unexpected reply: {other:?}"),
    }
    // The server drops the connection after a malformed frame.
    assert!(client.recv().is_err(), "connection must be closed");

    // A healthy connection still works, and the stats show exactly one
    // protocol error.
    let mut healthy = Client::connect(&addr).expect("connect healthy");
    assert!(matches!(healthy.call(&Request::Ping), Ok(Reply::Pong)));
    match healthy.call(&Request::Stats).expect("stats") {
        Reply::Stats { json } => {
            let summary: telemetry::ServingSummary =
                serde::json::from_str(&json).expect("summary parses");
            assert_eq!(summary.protocol_errors, 1);
        }
        other => panic!("unexpected stats reply: {other:?}"),
    }

    shutdown(&addr);
    let stats = handle.join().expect("join");
    assert_eq!(stats.summary.protocol_errors, 1);
}

#[test]
fn unix_socket_round_trips_too() {
    let opts = small_fleet();
    let path = std::env::temp_dir().join(format!("parrot-serve-test-{}.sock", std::process::id()));
    let engine = Engine::new(EngineConfig::default(), derive_fleet(&opts));
    let serve_opts = serve::server::ServeOptions {
        listen: Listen::Unix(path.clone()),
        batch_window_us: 500,
        reap_period_us: 1_000,
    };
    let server = Server::bind(&serve_opts, engine).expect("bind unix socket");
    let addr = server.local();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect(&addr).expect("connect over unix");
    assert!(matches!(client.call(&Request::Ping), Ok(Reply::Pong)));
    match client
        .call(&Request::Invoke {
            tenant: "t1".to_string(),
            request_id: 1,
            deadline_us: 0,
            mode: InvokeMode::Precise,
            inputs: request_inputs(opts.seed, 1, 1, 4),
        })
        .expect("invoke")
    {
        Reply::Outputs { precise, .. } => assert!(precise, "explicit offload is precise"),
        other => panic!("unexpected reply: {other:?}"),
    }

    shutdown(&addr);
    handle.join().expect("join");
    assert!(!path.exists(), "socket file cleaned up on shutdown");
}
