//! Client/server integration test of the serving layer: load a 500-AS
//! synthetic market, advise an AS, stream 3 evolution rounds, snapshot,
//! kill the server, restore into a **new** server (at a different
//! thread count), stream 3 more rounds — and assert the stitched
//! trajectory is byte-identical to an uninterrupted 6-round `evolve`
//! run at threads 1 and 4 (wall-clock fields zeroed).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use serde::{Deserialize, Value};

use pan_bench::{evolution_config, market_state, ScenarioSpec};
use pan_core::dynamics::{evolve, RoundRecord};
use pan_runtime::{ScenarioSweep, ThreadPool};
use pan_serve::{LoadedMarket, MarketServer};

/// The run under test: a 500-AS market with shocks and share noise on,
/// so both the perturbation stream and the per-pair jitter must survive
/// the checkpoint.
fn test_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        quick: false,
        seed: 23,
        ases: 500,
        ..ScenarioSpec::default()
    };
    spec.discovery.grid = 3;
    spec.discovery.noise = 0.1;
    spec.evolution.rounds = 6;
    spec.evolution.adopt_top = 5;
    spec.evolution.min_surplus = 1e-3;
    spec.evolution.shock = 0.3;
    spec
}

fn loaded_market(spec: &ScenarioSpec) -> LoadedMarket {
    let (net, state) = market_state(spec);
    LoadedMarket {
        state,
        config: evolution_config(spec),
        seed: spec.seed,
        label: format!("test:{}-as", net.graph.node_count()),
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

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        assert!(
            self.reader.read_line(&mut line).expect("reply reads") > 0,
            "server closed the connection"
        );
        serde_json::from_str(line.trim()).expect("replies parse")
    }

    fn recv_ok(&mut self) -> Value {
        let reply = self.recv();
        assert_eq!(
            reply.field("ok").unwrap(),
            &Value::Bool(true),
            "reply: {reply:?}"
        );
        reply
    }

    /// Sends a `step` request and collects the streamed round records;
    /// asserts the closing summary matches the round count.
    fn step(&mut self, market: &str, rounds: usize) -> Vec<RoundRecord> {
        self.step_request(&format!(
            r#"{{"v":2,"verb":"step","market":"{market}","rounds":{rounds}}}"#
        ))
    }

    /// Sends one `step` request line and collects its round records.
    fn step_request(&mut self, request: &str) -> Vec<RoundRecord> {
        self.send(request);
        let mut records = Vec::new();
        loop {
            let reply = self.recv_ok();
            match reply.field("verb").unwrap() {
                Value::Str(verb) if verb == "round" => {
                    records.push(
                        RoundRecord::from_value(reply.field("record").unwrap())
                            .expect("round records parse"),
                    );
                }
                Value::Str(verb) if verb == "step" => {
                    let streamed = match reply.field("rounds").unwrap() {
                        Value::I64(n) => *n as usize,
                        Value::U64(n) => *n as usize,
                        other => panic!("rounds: {other:?}"),
                    };
                    assert_eq!(streamed, records.len());
                    return records;
                }
                other => panic!("unexpected verb {other:?}"),
            }
        }
    }
}

fn zeroed(records: &[RoundRecord]) -> Vec<RoundRecord> {
    records.iter().map(|r| r.with_zeroed_timing()).collect()
}

#[test]
fn snapshot_restore_reproduces_the_uninterrupted_trajectory() {
    let spec = test_spec();
    let config = evolution_config(&spec);

    // Uninterrupted references at two thread counts: byte-identical to
    // each other by the sweep determinism contract.
    let reference = {
        let (_, mut state) = market_state(&spec);
        let report = evolve(&mut state, &config, &ScenarioSweep::sequential(spec.seed)).unwrap();
        assert_eq!(report.rounds.len(), 6, "shocked runs hit the round cap");
        assert!(report.total_adopted() > 0, "the market must trade");
        zeroed(&report.rounds)
    };
    {
        let (_, mut state) = market_state(&spec);
        let report = evolve(
            &mut state,
            &config,
            &ScenarioSweep::new(ThreadPool::new(4), spec.seed),
        )
        .unwrap();
        assert_eq!(
            zeroed(&report.rounds),
            reference,
            "4-thread evolve diverged"
        );
    }

    let checkpoint =
        std::env::temp_dir().join(format!("pan-serve-roundtrip-{}.json", std::process::id()));
    let checkpoint_json = serde_json::to_string(&checkpoint.to_str().unwrap()).unwrap();

    // Session 1: load, advise, step 3, snapshot, kill.
    let first_half = {
        let server = MarketServer::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr().unwrap();
        let load_spec = spec.clone();
        let handle =
            std::thread::spawn(move || server.serve(&move |_| Ok(loaded_market(&load_spec))));
        let mut client = Client::connect(addr);
        client.send(r#"{"v":2,"verb":"load","market":{}}"#);
        let reply = client.recv_ok();
        assert_eq!(
            reply.field("market").unwrap(),
            &Value::Str("m1".to_owned()),
            "the first load of a fresh server is m1"
        );
        assert_eq!(reply.field("ases").unwrap(), &Value::I64(500));

        // The advisory query answers from the resident state, sweeping
        // only the one AS's candidate slice.
        let asn = {
            let (net, _) = market_state(&spec);
            let hub = (0..net.graph.node_count() as u32)
                .max_by_key(|&i| net.graph.peer_indices(i).len())
                .unwrap();
            net.graph.asn_at(hub).get()
        };
        let started = std::time::Instant::now();
        client.send(&format!(
            r#"{{"v":2,"verb":"advise","market":"m1","asn":{asn},"top":5}}"#
        ));
        let reply = client.recv_ok();
        let advise_ms = started.elapsed().as_secs_f64() * 1e3;
        let candidates = match reply.field("candidates").unwrap() {
            Value::I64(n) => *n as usize,
            Value::U64(n) => *n as usize,
            other => panic!("candidates: {other:?}"),
        };
        assert!(candidates > 0, "the hub has peers to advise about");
        eprintln!("# advise answered in {advise_ms:.1} ms over {candidates} candidates");

        let records = client.step("m1", 3);
        client.send(&format!(
            r#"{{"v":2,"verb":"snapshot","market":"m1","path":{checkpoint_json}}}"#
        ));
        client.recv_ok();
        client.send(r#"{"v":2,"verb":"quit"}"#);
        client.recv_ok();
        handle.join().unwrap().unwrap();
        records
    };
    assert_eq!(first_half.len(), 3);

    // Session 2: a fresh server (different thread count) restores the
    // checkpoint and steps the remaining rounds.
    let second_half = {
        let server = MarketServer::bind("127.0.0.1:0", 4).unwrap();
        let addr = server.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || server.serve(&|_| Err("restore-only session".to_owned())));
        let mut client = Client::connect(addr);
        client.send(&format!(
            r#"{{"v":2,"verb":"load","checkpoint":{checkpoint_json}}}"#
        ));
        let reply = client.recv_ok();
        assert_eq!(
            reply.field("verb").unwrap(),
            &Value::Str("load".to_owned()),
            "checkpoint loads echo the request's verb"
        );
        assert_eq!(reply.field("rounds_done").unwrap(), &Value::I64(3));
        let records = client.step("m1", 3);
        client.send(r#"{"v":2,"verb":"quit"}"#);
        client.recv_ok();
        handle.join().unwrap().unwrap();
        records
    };
    assert_eq!(second_half.len(), 3);
    std::fs::remove_file(&checkpoint).ok();

    let mut stitched = first_half;
    stitched.extend(second_half);
    assert_eq!(
        zeroed(&stitched),
        reference,
        "kill/restore trajectory diverged from the uninterrupted run"
    );
    // Byte-identical, not just equal: compare the serialized records.
    assert_eq!(
        serde_json::to_string(&zeroed(&stitched)).unwrap(),
        serde_json::to_string(&reference).unwrap()
    );
}

#[test]
fn a_step_shock_override_ends_with_its_request() {
    // A market loaded without a shock: only an override can reprice.
    let mut spec = test_spec();
    spec.ases = 300;
    spec.discovery.noise = 0.0;
    spec.evolution.shock = 0.0;
    let server = MarketServer::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve(&move |_| Ok(loaded_market(&spec))));
    let mut client = Client::connect(addr);
    client.send(r#"{"v":2,"verb":"load","market":{}}"#);
    client.recv_ok();

    let shocked =
        client.step_request(r#"{"v":2,"verb":"step","market":"m1","rounds":1,"shock":0.2}"#);
    assert_eq!(shocked.len(), 1);
    assert!(
        shocked[0].price_shocks > 0,
        "the override shocks its own round: {:?}",
        shocked[0]
    );
    let plain = client.step("m1", 1);
    assert_eq!(plain.len(), 1);
    assert_eq!(plain[0].round, 1, "the round counter carries on");
    assert_eq!(
        plain[0].price_shocks, 0,
        "a step without an override keeps the market's own shock"
    );

    client.send(r#"{"v":2,"verb":"quit"}"#);
    client.recv_ok();
    handle.join().unwrap().unwrap();
}
