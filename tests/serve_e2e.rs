//! Loopback end-to-end tests for the tripro-serve query service: concurrent
//! TCP clients must get byte-identical results to direct `Engine` calls;
//! forced overload must shed with `Overloaded` while the server stays
//! responsive; a zero deadline must return `DeadlineExceeded`; shutdown
//! must drain gracefully.

use std::sync::Arc;
use std::time::Duration;
use tripro::{Engine, ExecStats, ObjectStore, Paradigm, PointQuery, QueryConfig, StoreConfig};
use tripro_serve::{
    Client, Coordinator, CoordinatorConfig, ErrorCode, QueryReply, Request, RetryPolicy,
    RetryingClient, ServeConfig, ServeError, Server,
};
use tripro_synth::{DatasetConfig, VesselConfig};

fn stores() -> (Arc<ObjectStore>, Arc<ObjectStore>) {
    let block = tripro_synth::generate(&DatasetConfig {
        nuclei_count: 24,
        vessel_count: 1,
        vessel: VesselConfig {
            levels: 2,
            grid: 16,
            ..Default::default()
        },
        seed: 0x5E27E,
        ..Default::default()
    });
    let target = ObjectStore::build(&block.nuclei_a, &StoreConfig::default()).expect("encode a");
    let source = ObjectStore::build(&block.nuclei_b, &StoreConfig::default()).expect("encode b");
    (Arc::new(target), Arc::new(source))
}

fn start(cfg: ServeConfig) -> (Server, Arc<ObjectStore>, Arc<ObjectStore>) {
    let (target, source) = stores();
    let server = Server::start(Arc::clone(&target), Arc::clone(&source), cfg).expect("start");
    (server, target, source)
}

fn ids_of(reply: QueryReply) -> Vec<u32> {
    match reply {
        QueryReply::Ids(ids) => ids,
        QueryReply::Error { code, message, .. } => panic!("unexpected error {code:?}: {message}"),
        other => panic!("engine never answers these requests with {other:?}"),
    }
}

#[test]
fn concurrent_clients_match_direct_engine() {
    let (server, target, source) = start(ServeConfig::default());
    let addr = server.addr();

    // Direct (in-process) reference results for every op kind.
    let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, tripro::Accel::Aabb);
    let stats = ExecStats::new();
    let engine = Engine::new(&target, &source);
    let n = target.len() as u32;

    let expected: Vec<(Request, Vec<u32>)> = (0..n)
        .flat_map(|t| {
            let c = target.rtree().bounds().center();
            vec![
                (
                    Request::Intersect {
                        target: t,
                        deadline_ms: u32::MAX,
                    },
                    engine.intersect_one(t, &cfg, &stats).unwrap(),
                ),
                (
                    Request::Within {
                        target: t,
                        d: 2.0,
                        deadline_ms: u32::MAX,
                    },
                    engine.within_one(t, 2.0, &cfg, &stats).unwrap(),
                ),
                (
                    Request::Nn {
                        target: t,
                        deadline_ms: u32::MAX,
                    },
                    engine
                        .nn_one(t, &cfg, &stats)
                        .unwrap()
                        .into_iter()
                        .collect(),
                ),
                (
                    Request::Knn {
                        target: t,
                        k: 3,
                        deadline_ms: u32::MAX,
                    },
                    engine.knn_one(t, 3, &cfg, &stats).unwrap(),
                ),
                (
                    Request::Contains {
                        p: [c.x, c.y, c.z],
                        deadline_ms: u32::MAX,
                    },
                    PointQuery::new(&target)
                        .containing(c, &cfg, &stats)
                        .unwrap(),
                ),
            ]
        })
        .collect();

    // Drive the same requests over the wire from several threads at once.
    let n_clients = 4;
    std::thread::scope(|scope| {
        for shard in 0..n_clients {
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (req, want) in expected.iter().skip(shard).step_by(n_clients) {
                    let got = ids_of(client.query(req).expect("query"));
                    assert_eq!(&got, want, "wire result diverged for {req:?}");
                }
            });
        }
    });

    let s = server.stats();
    assert!(s.admitted >= expected.len() as u64);
    assert_eq!(s.shed, 0);
    assert_eq!(s.protocol_errors, 0);
    server.shutdown();
}

#[test]
fn overload_sheds_but_server_stays_responsive() {
    let (server, _t, _s) = start(ServeConfig {
        max_inflight: 1,
        queue_depth: 0,
        inject_latency: Some(Duration::from_millis(150)),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // More concurrent clients than the admission limit: some must be shed
    // with an explicit Overloaded reply.
    let n_clients = 6;
    let outcomes: Vec<QueryReply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .query(&Request::Intersect {
                            target: i as u32,
                            deadline_ms: u32::MAX,
                        })
                        .expect("query transport")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    let shed = outcomes
        .iter()
        .filter(|r| {
            matches!(
                r,
                QueryReply::Error {
                    code: ErrorCode::Overloaded,
                    ..
                }
            )
        })
        .count();
    let served = outcomes.iter().filter(|r| r.ids().is_some()).count();
    assert!(shed > 0, "expected overload shedding, got {outcomes:?}");
    assert!(served > 0, "at least one request must be admitted");
    assert_eq!(shed + served, n_clients, "unexpected outcome: {outcomes:?}");

    // Health and metrics probes are answered inline even while the single
    // execution slot is busy.
    let mut probe = Client::connect(addr).expect("connect probe");
    probe.health().expect("health under load");
    probe.metrics().expect("metrics under load");
    assert!(server.stats().shed >= shed as u64);
    server.shutdown();
}

#[test]
fn zero_deadline_returns_deadline_exceeded() {
    let (server, target, _s) = start(ServeConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");

    let reply = client
        .query(&Request::Intersect {
            target: 0,
            deadline_ms: 0,
        })
        .expect("query");
    assert_eq!(reply.error_code(), Some(ErrorCode::DeadlineExceeded));

    // The same query with no deadline completes fine afterwards: the
    // expiry neither wedged the connection nor the dispatcher.
    let ok = client
        .query(&Request::Intersect {
            target: 0,
            deadline_ms: u32::MAX,
        })
        .expect("query");
    assert!(ok.ids().is_some());
    drop(target);

    let s = server.stats();
    assert!(s.deadline_expired >= 1);
    server.shutdown();
}

#[test]
fn bad_requests_and_malformed_frames_are_rejected() {
    let (server, target, _s) = start(ServeConfig::default());
    let addr = server.addr();

    // Semantically invalid: target id out of range.
    let mut client = Client::connect(addr).expect("connect");
    let reply = client
        .query(&Request::Intersect {
            target: target.len() as u32 + 7,
            deadline_ms: u32::MAX,
        })
        .expect("query");
    assert_eq!(reply.error_code(), Some(ErrorCode::BadRequest));

    // Structurally invalid: garbage bytes are answered with BadRequest and
    // the connection is dropped — without disturbing other clients.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        raw.write_all(&[0xDE; 32]).expect("write garbage");
        let mut buf = Vec::new();
        let _ = raw.read_to_end(&mut buf); // server replies then closes
        assert!(!buf.is_empty(), "expected an error frame before close");
    }
    client.health().expect("existing client still healthy");

    let s = server.stats();
    assert!(s.protocol_errors >= 1);
    server.shutdown();
}

#[test]
fn mid_frame_disconnects_do_not_stall_dispatch() {
    // A client may die at any byte offset of a frame. The server must
    // treat each case as a clean (counted) transport failure on that one
    // connection — never stall the accept loop or dispatcher, never wedge
    // other clients.
    let (server, _t, _s) = start(ServeConfig::default());
    let addr = server.addr();

    let frame = tripro_serve::protocol::encode_request(
        7,
        &Request::Intersect {
            target: 0,
            deadline_ms: u32::MAX,
        },
    );
    let header_len = tripro_serve::protocol::HEADER_LEN;
    assert!(frame.len() > header_len, "query frame must carry a payload");

    // Cut points: mid-header after the length prefix, one byte short of a
    // full header, and mid-payload after a complete header.
    for cut in [4, header_len - 1, header_len + 1] {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        raw.write_all(&frame[..cut]).expect("write prefix");
        drop(raw); // disconnect mid-frame

        // The server must keep serving new connections and queries.
        let mut client = Client::connect(addr).expect("connect after cut");
        let reply = client
            .query(&Request::Intersect {
                target: 0,
                deadline_ms: u32::MAX,
            })
            .expect("query after cut");
        assert!(reply.ids().is_some(), "cut at {cut} wedged the server");
    }

    // Every truncated frame is a counted protocol error, and none of them
    // may leak an admission (the cut frames never reached dispatch).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let s = server.stats();
        // (completed lags admitted briefly: outcomes tick after the reply
        // is sent, so poll for both.)
        if s.protocol_errors >= 3 && s.admitted == s.completed {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "truncated frames never surfaced as protocol errors ({s:?})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn metrics_frame_returns_valid_exposition() {
    let (server, _t, _s) = start(ServeConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");

    // Generate some traffic so the query/decode series exist.
    for t in 0..3u32 {
        let reply = client
            .query(&Request::Intersect {
                target: t,
                deadline_ms: u32::MAX,
            })
            .expect("query");
        assert!(reply.ids().is_some());
    }

    let text = tripro::obs::render_snapshots(&client.metrics().expect("metrics frame"));
    tripro::obs::validate_exposition(&text).expect("well-formed Prometheus exposition");
    assert!(
        text.contains("tripro_requests_total{outcome=\"admitted\"}"),
        "outcome counters missing:\n{text}"
    );
    assert!(
        text.contains("# TYPE tripro_query_latency_seconds histogram"),
        "query latency histogram missing:\n{text}"
    );
    server.shutdown();
}

#[test]
fn admission_ledger_balances_after_drain() {
    // Regression test for the accounting gap: every admitted request must
    // eventually be accounted as completed, deadline-expired, or failed.
    // Mixes successes with zero-deadline expiries so more than one outcome
    // path contributes.
    let (server, target, _s) = start(ServeConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");

    for t in 0..target.len() as u32 {
        let _ = client
            .query(&Request::Nn {
                target: t,
                deadline_ms: if t % 3 == 0 { 0 } else { u32::MAX },
            })
            .expect("query");
    }

    // Responses are sent before the outcome counter ticks, so poll briefly
    // for the ledger to balance instead of racing it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let s = server.stats();
        let accounted = s.completed + s.deadline_expired + s.failed;
        if s.admitted == accounted {
            assert!(s.admitted >= target.len() as u64);
            assert!(s.completed > 0 && s.deadline_expired > 0);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "ledger never balanced: admitted {} vs accounted {accounted} ({s:?})",
            s.admitted
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn remote_shutdown_drains_and_unblocks_wait() {
    let (server, _t, _s) = start(ServeConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");

    // Queue a little work, then ask the server to exit.
    for t in 0..3u32 {
        let reply = client
            .query(&Request::Nn {
                target: t,
                deadline_ms: u32::MAX,
            })
            .expect("query");
        assert!(reply.ids().is_some());
    }
    client.shutdown_server().expect("shutdown ack");
    server.wait(); // must return now that the server is draining
    server.shutdown();
}

/// A connection shed at the accept loop must reach the caller as what it
/// is — a typed `Overloaded` with a backoff hint, not a reset or a bogus
/// version refusal — and a retrying client must ride it out.
#[test]
fn connection_limit_refusal_is_typed_and_retried() {
    let (server, _t, _s) = start(ServeConfig {
        max_connections: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let first = Client::connect(addr).expect("first connection fits");

    match Client::connect(addr)
        .err()
        .expect("second connection is over the limit")
    {
        ServeError::Refused {
            code,
            retry_after_ms,
            ..
        } => {
            assert_eq!(code, ErrorCode::Overloaded);
            assert!(retry_after_ms >= 1, "shed without a backoff hint");
        }
        other => panic!("expected a typed Overloaded refusal, got {other:?}"),
    }
    assert!(server.stats().shed >= 1);

    // The slot frees shortly after the first client goes away; a retrying
    // client connecting meanwhile backs off on the hint and gets through.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        drop(first);
    });
    let policy = RetryPolicy {
        max_retries: 8,
        base_backoff: Duration::from_millis(20),
        ..RetryPolicy::default()
    };
    let mut retrying = RetryingClient::connect(addr, policy).expect("retried past the limit");
    let (reply, _) = retrying
        .query(&Request::Nn {
            target: 0,
            deadline_ms: u32::MAX,
        })
        .expect("query");
    assert!(reply.ids().is_some());
    release.join().expect("join");
    drop(retrying);
    server.shutdown();
}

/// One wire version: a frame stamped with anything but `VERSION`, or a
/// `Hello` whose range excludes it, is answered `UnsupportedVersion` — by
/// a shard engine and by a coordinator alike.
#[test]
fn any_other_version_is_refused_by_both_node_kinds() {
    use std::io::Write;
    use tripro_serve::protocol::{self, NodeRole, Response, VERSION};

    let (server, target, _s) = start(ServeConfig::default());
    // A one-shard map over an unsharded engine (which reports epoch 0).
    let coord = Coordinator::start(
        target,
        CoordinatorConfig {
            shards: vec![server.addr().to_string()],
            epoch: 0,
            ..CoordinatorConfig::default()
        },
    )
    .expect("coordinator over one unsharded engine");

    let mut refused = Vec::new();
    for bad in (0..VERSION).chain([VERSION + 1, u8::MAX]) {
        let mut frame = protocol::encode_request(9, &Request::Health);
        frame[6] = bad;
        refused.push(frame);
    }
    for (min_version, max_version) in [(1, VERSION - 1), (VERSION + 1, u8::MAX)] {
        let role = NodeRole::Client;
        refused.push(protocol::encode_request(
            9,
            &Request::Hello {
                min_version,
                max_version,
                role,
            },
        ));
    }
    for addr in [server.addr(), coord.addr()] {
        for frame in &refused {
            let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
            raw.write_all(frame).expect("write");
            match protocol::read_response(&mut raw).expect("typed reply") {
                (9, Response::Error { code, .. }) => {
                    assert_eq!(code, ErrorCode::UnsupportedVersion, "{frame:?} at {addr}");
                }
                other => panic!("{frame:?} at {addr}: {other:?}"),
            }
        }
    }
    assert!(server.stats().protocol_errors >= refused.len() as u64);
    assert!(coord.stats().protocol_errors >= refused.len() as u64);
    coord.shutdown();
    server.shutdown();
}

/// `NnEx` (kind 0x15) was retired in v9: a coordinator asks for a scored
/// NN as `KnnEx { k: 1 }`. A 0x15 frame — here an `Nn` body, the layout
/// `NnEx` had — is answered `BadRequest` by a shard engine and by a
/// coordinator alike.
#[test]
fn retired_nn_ex_frame_is_refused_by_both_node_kinds() {
    use std::io::Write;
    use tripro_serve::protocol::{self, Response};

    let (server, target, _s) = start(ServeConfig::default());
    let coord = Coordinator::start(
        target,
        CoordinatorConfig {
            shards: vec![server.addr().to_string()],
            epoch: 0,
            ..CoordinatorConfig::default()
        },
    )
    .expect("coordinator over one unsharded engine");
    let mut frame = protocol::encode_request(
        9,
        &Request::Nn {
            target: 0,
            deadline_ms: u32::MAX,
        },
    );
    frame[7] = 0x15;
    for addr in [server.addr(), coord.addr()] {
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        raw.write_all(&frame).expect("write");
        match protocol::read_response(&mut raw).expect("typed reply") {
            (9, Response::Error { code, .. }) => {
                assert_eq!(code, ErrorCode::BadRequest, "at {addr}");
            }
            other => panic!("at {addr}: {other:?}"),
        }
    }
    coord.shutdown();
    server.shutdown();
}
