//! Integration tests of the unified market-ingestion layer over the
//! committed fixture snapshots (`fixtures/caida/`, regenerate with the
//! `make_fixture_snapshots` example): CAIDA-loaded markets must be
//! byte-identical across thread counts and builds and carry both
//! sidecars, and a serve session loaded from a CAIDA source must step
//! exactly like an offline `evolve` over the same snapshot.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Value};

use pan_bench::{evolution_config, load_market_request, market_state, ScenarioSpec};
use pan_core::dynamics::{evolve, RoundRecord};
use pan_datasets::{prefix, MarketSource};
use pan_runtime::{ScenarioSweep, ThreadPool};
use pan_serve::MarketServer;
use pan_topology::snapshot;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/caida")
}

/// The run under test: the committed two-snapshot fixture corpus with
/// shocks and share noise on, so the whole perturbation pipeline runs.
fn caida_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        seed: 23,
        ..ScenarioSpec::default()
    };
    spec.source.caida = fixture_dir().display().to_string();
    spec.source.snapshot = "2023".to_owned();
    spec.discovery.grid = 3;
    spec.discovery.noise = 0.1;
    spec.evolution.rounds = 5;
    spec.evolution.adopt_top = 5;
    spec.evolution.shock = 0.3;
    spec
}

fn zeroed(records: &[RoundRecord]) -> Vec<RoundRecord> {
    records.iter().map(|r| r.with_zeroed_timing()).collect()
}

#[test]
fn caida_evolution_is_byte_identical_across_thread_counts() {
    let spec = caida_spec();
    let config = evolution_config(&spec);
    let mut rounds_by_threads = Vec::new();
    for threads in [1, 4] {
        let (_, mut state) = market_state(&spec);
        let report = evolve(
            &mut state,
            &config,
            &ScenarioSweep::new(ThreadPool::new(threads), spec.seed),
        )
        .unwrap();
        assert!(report.total_adopted() > 0, "the fixture market must trade");
        rounds_by_threads.push(serde_json::to_string(&zeroed(&report.rounds)).unwrap());
    }
    assert_eq!(
        rounds_by_threads[0], rounds_by_threads[1],
        "1-thread and 4-thread CAIDA evolutions diverged"
    );
}

#[test]
fn snapshot_builds_are_equal_and_carry_both_sidecars() {
    let source = MarketSource::Caida {
        dir: fixture_dir(),
        snapshot: Some("2023".to_owned()),
    };
    let first = source.build(23).unwrap();
    let second = source.build(23).unwrap();
    assert_eq!(
        serde_json::to_string(&first.graph).unwrap(),
        serde_json::to_string(&second.graph).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&first.prefixes).unwrap(),
        serde_json::to_string(&second.prefixes).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&first.capacities).unwrap(),
        serde_json::to_string(&second.capacities).unwrap()
    );
    for asn in first.graph.ases() {
        assert_eq!(first.geo.as_location(asn), second.geo.as_location(asn));
        assert_eq!(first.tier(asn), second.tier(asn));
    }

    // Both sidecars reach the market: a located AS sits exactly at its
    // sidecar point, and a prefix-table AS owns the sidecar's prefixes.
    let snapshot_dir = fixture_dir().join("2023");
    let read = |file: &str| std::fs::read_to_string(snapshot_dir.join(file)).unwrap();
    let located = snapshot::parse_geo(&read(snapshot::GEO_FILE)).unwrap();
    assert!(!located.is_empty(), "the fixture locates some ASes");
    for (asn, point) in located {
        assert_eq!(first.geo.as_location(asn), Some(point), "{asn}");
    }
    let sidecar = prefix::parse_pfx2as(&read(snapshot::PREFIXES_FILE), &first.graph).unwrap();
    let origins: BTreeSet<_> = first
        .graph
        .ases()
        .filter(|&asn| !sidecar.prefixes_of(asn).is_empty())
        .collect();
    assert!(!origins.is_empty(), "the fixture originates some prefixes");
    for asn in origins {
        assert_eq!(
            first.prefixes.prefixes_of(asn),
            sidecar.prefixes_of(asn),
            "{asn}"
        );
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        Client {
            writer: stream.try_clone().expect("streams clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("request writes");
    }

    fn recv_ok(&mut self) -> Value {
        let mut line = String::new();
        assert!(
            self.reader.read_line(&mut line).expect("reply reads") > 0,
            "server closed the connection"
        );
        let reply: Value = serde_json::from_str(line.trim()).expect("replies parse");
        assert_eq!(
            reply.field("ok").unwrap(),
            &Value::Bool(true),
            "reply: {reply:?}"
        );
        reply
    }

    fn step(&mut self, market: &str, rounds: usize) -> Vec<RoundRecord> {
        self.send(&format!(
            r#"{{"v":2,"verb":"step","market":"{market}","rounds":{rounds}}}"#
        ));
        let mut records = Vec::new();
        loop {
            let reply = self.recv_ok();
            match reply.field("verb").unwrap() {
                Value::Str(verb) if verb == "round" => records.push(
                    RoundRecord::from_value(reply.field("record").unwrap())
                        .expect("round records parse"),
                ),
                Value::Str(verb) if verb == "step" => return records,
                other => panic!("unexpected verb {other:?}"),
            }
        }
    }
}

#[test]
fn serve_session_from_caida_steps_like_offline_evolve() {
    let spec = caida_spec();
    let config = evolution_config(&spec);

    // Offline reference over the same snapshot, threads 1.
    let reference = {
        let (_, mut state) = market_state(&spec);
        let report = evolve(&mut state, &config, &ScenarioSweep::sequential(spec.seed)).unwrap();
        zeroed(&report.rounds)
    };

    // A server whose *base* spec is synthetic: the load request itself
    // selects the CAIDA source, exercising the protocol's "source" field.
    let base = ScenarioSpec {
        seed: spec.seed,
        ases: 120,
        discovery: spec.discovery,
        evolution: spec.evolution,
        ..ScenarioSpec::default()
    };
    let server = MarketServer::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve(&move |m| load_market_request(&base, m)));

    let mut client = Client::connect(addr);
    let dir = serde_json::to_string(&fixture_dir().display().to_string()).unwrap();
    client.send(&format!(
        r#"{{"v":2,"verb":"load","market":{{"source":{{"caida":{dir},"snapshot":"2023"}}}}}}"#
    ));
    let reply = client.recv_ok();
    assert_eq!(reply.field("market").unwrap(), &Value::Str("m1".to_owned()));
    let label = match reply.field("label").unwrap() {
        Value::Str(label) => label.clone(),
        other => panic!("label: {other:?}"),
    };
    assert!(label.starts_with("caida:"), "label: {label}");
    assert!(label.ends_with("/2023:seed-23"), "label: {label}");

    let streamed = client.step("m1", config.rounds);
    assert_eq!(
        zeroed(&streamed),
        reference,
        "served CAIDA rounds diverged from offline evolve"
    );

    client.send(r#"{"v":2,"verb":"quit"}"#);
    client.recv_ok();
    handle.join().unwrap().unwrap();
}
