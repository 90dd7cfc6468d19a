//! Multi-tenant determinism: two markets resident in ONE server, their
//! `step`s interleaved round by round (with advise traffic mixed in),
//! must each produce a trajectory byte-identical to the same market
//! run in isolation by `evolve` — at worker-thread counts 1 and 4.
//!
//! This is the session-isolation contract of the serving layer: a
//! market's trajectory depends only on its own (state, config, seed),
//! never on what its neighbors in the session table are doing. The
//! second test adds the ordering contract of a connection: requests
//! pipelined on one connection are answered in request order, while
//! another connection pipelines against the other market.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use serde::{Deserialize, Value};

use pan_bench::{evolution_config, market_state, ScenarioSpec};
use pan_core::dynamics::{evolve, RoundRecord};
use pan_runtime::{ScenarioSweep, ThreadPool};
use pan_serve::{LoadedMarket, MarketServer};

const ROUNDS: usize = 4;

/// Both tenants: 300-AS markets with shocks and share noise on (so the
/// perturbation and jitter streams must stay per-session), differing in
/// seed — different topologies, economies, and trajectories.
fn tenant_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        quick: false,
        seed,
        ases: 300,
        ..ScenarioSpec::default()
    };
    spec.discovery.grid = 3;
    spec.discovery.noise = 0.1;
    spec.evolution.rounds = ROUNDS;
    spec.evolution.adopt_top = 5;
    spec.evolution.min_surplus = 1e-3;
    spec.evolution.shock = 0.3;
    spec
}

/// The loader of the test server: `{"seed": n}` selects the tenant.
fn loader(market: &Value) -> Result<LoadedMarket, String> {
    let seed = match market.field("seed") {
        Ok(Value::I64(n)) => *n as u64,
        Ok(Value::U64(n)) => *n,
        other => return Err(format!("test loader wants a seed, got {other:?}")),
    };
    let spec = tenant_spec(seed);
    let (net, state) = market_state(&spec);
    Ok(LoadedMarket {
        state,
        config: evolution_config(&spec),
        seed,
        label: format!("tenant:{}-as:seed-{}", net.graph.node_count(), seed),
    })
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

    /// Steps one round of one market, returning its record.
    fn step_one(&mut self, market: &str) -> RoundRecord {
        self.send(&format!(
            r#"{{"v":2,"verb":"step","market":"{market}","rounds":1}}"#
        ));
        let round = self.recv_ok();
        assert_eq!(round.field("verb").unwrap(), &Value::Str("round".into()));
        let record =
            RoundRecord::from_value(round.field("record").unwrap()).expect("round records parse");
        let summary = self.recv_ok();
        assert_eq!(summary.field("verb").unwrap(), &Value::Str("step".into()));
        record
    }
}

fn zeroed(records: &[RoundRecord]) -> Vec<RoundRecord> {
    records.iter().map(|r| r.with_zeroed_timing()).collect()
}

/// Isolated single-market reference trajectory via the batch engine.
fn reference(seed: u64, threads: usize) -> Vec<RoundRecord> {
    let spec = tenant_spec(seed);
    let (_, mut state) = market_state(&spec);
    let sweep = if threads <= 1 {
        ScenarioSweep::sequential(seed)
    } else {
        ScenarioSweep::new(ThreadPool::new(threads), seed)
    };
    let report = evolve(&mut state, &evolution_config(&spec), &sweep).unwrap();
    assert_eq!(
        report.rounds.len(),
        ROUNDS,
        "shocked runs hit the round cap"
    );
    zeroed(&report.rounds)
}

/// Interleaves both tenants round by round on one server and returns
/// their trajectories.
fn interleaved_on_server(threads: usize) -> (Vec<RoundRecord>, Vec<RoundRecord>) {
    let server = MarketServer::bind("127.0.0.1:0", threads)
        .unwrap()
        .with_max_markets(2);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve(&loader));
    let mut client = Client::connect(addr);

    client.send(r#"{"v":2,"verb":"load","market":{"seed":23}}"#);
    let m_a = client.recv_ok();
    assert_eq!(m_a.field("market").unwrap(), &Value::Str("m1".into()));
    client.send(r#"{"v":2,"verb":"load","market":{"seed":91}}"#);
    let m_b = client.recv_ok();
    assert_eq!(m_b.field("market").unwrap(), &Value::Str("m2".into()));

    let mut rounds_a = Vec::new();
    let mut rounds_b = Vec::new();
    for i in 0..ROUNDS {
        // Alternate the stepping order per round, with advise traffic in
        // between — neither the interleaving nor the cache activity may
        // leak into either trajectory.
        if i % 2 == 0 {
            rounds_a.push(client.step_one("m1"));
            client.send(r#"{"v":2,"verb":"advise","market":"m2","asn":1,"top":3}"#);
            client.recv_ok();
            rounds_b.push(client.step_one("m2"));
        } else {
            rounds_b.push(client.step_one("m2"));
            client.send(r#"{"v":2,"verb":"advise","market":"m1","asn":1,"top":3}"#);
            client.recv_ok();
            rounds_a.push(client.step_one("m1"));
        }
    }

    client.send(r#"{"v":2,"verb":"quit"}"#);
    client.recv_ok();
    handle.join().unwrap().unwrap();
    (rounds_a, rounds_b)
}

#[test]
fn interleaved_sessions_match_isolated_trajectories_at_any_thread_count() {
    // Thread-count independence of the references themselves.
    let reference_a = reference(23, 1);
    let reference_b = reference(91, 1);
    assert_eq!(reference(23, 4), reference_a, "4-thread evolve diverged");
    assert_eq!(reference(91, 4), reference_b, "4-thread evolve diverged");
    assert!(
        reference_a != reference_b,
        "the tenants must be genuinely different markets"
    );

    for threads in [1, 4] {
        let (rounds_a, rounds_b) = interleaved_on_server(threads);
        // Byte-identical, not just equal: compare serialized records.
        assert_eq!(
            serde_json::to_string(&zeroed(&rounds_a)).unwrap(),
            serde_json::to_string(&reference_a).unwrap(),
            "market m1 diverged under interleaving at {threads} thread(s)"
        );
        assert_eq!(
            serde_json::to_string(&zeroed(&rounds_b)).unwrap(),
            serde_json::to_string(&reference_b).unwrap(),
            "market m2 diverged under interleaving at {threads} thread(s)"
        );
    }
}

/// One connection's pipelined script against a resident server: every
/// round of `own` is stepped, with an advise on `other` after each
/// step, all written in one go before any reply is read. Returns the
/// stepped records after checking that the replies come back in
/// request order (each step's `round` line, then its `step` summary,
/// then the advise, each echoing its request's `id`).
fn pipelined_session(addr: SocketAddr, own: &str, other: &str) -> Vec<RoundRecord> {
    let mut client = Client::connect(addr);
    let mut batch = String::new();
    let mut expected = Vec::new();
    for round in 0..ROUNDS as i64 {
        let (step_id, advise_id) = (2 * round, 2 * round + 1);
        writeln!(
            batch,
            r#"{{"v":2,"id":{step_id},"verb":"step","market":"{own}","rounds":1}}"#
        )
        .unwrap();
        writeln!(
            batch,
            r#"{{"v":2,"id":{advise_id},"verb":"advise","market":"{other}","asn":1,"top":3}}"#
        )
        .unwrap();
        expected.extend([
            ("round", step_id, own),
            ("step", step_id, own),
            ("advise", advise_id, other),
        ]);
    }
    client
        .writer
        .write_all(batch.as_bytes())
        .expect("pipelined requests write");

    let mut records = Vec::new();
    for (verb, id, market) in expected {
        let reply = client.recv_ok();
        assert_eq!(
            (reply.field("verb").unwrap(), reply.field("id").unwrap()),
            (&Value::Str(verb.into()), &Value::I64(id)),
            "session stepping {own}: reply out of request order: {reply:?}"
        );
        assert_eq!(reply.field("market").unwrap(), &Value::Str(market.into()));
        if verb == "round" {
            records.push(
                RoundRecord::from_value(reply.field("record").unwrap())
                    .expect("round records parse"),
            );
        }
    }
    records
}

#[test]
fn pipelined_sessions_reply_in_request_order_and_match_isolated_trajectories() {
    let reference_a = reference(23, 1);
    let reference_b = reference(91, 1);

    let server = MarketServer::bind("127.0.0.1:0", 2)
        .unwrap()
        .with_max_markets(2);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve(&loader));
    let mut control = Client::connect(addr);
    control.send(r#"{"v":2,"verb":"load","market":{"seed":23}}"#);
    assert_eq!(
        control.recv_ok().field("market").unwrap(),
        &Value::Str("m1".into())
    );
    control.send(r#"{"v":2,"verb":"load","market":{"seed":91}}"#);
    assert_eq!(
        control.recv_ok().field("market").unwrap(),
        &Value::Str("m2".into())
    );

    // Both sessions pipeline at once, each stepping its own market and
    // asking the other market for advice between its steps.
    let session_a = std::thread::spawn(move || pipelined_session(addr, "m1", "m2"));
    let session_b = std::thread::spawn(move || pipelined_session(addr, "m2", "m1"));
    let rounds_a = session_a.join().expect("session m1 completes");
    let rounds_b = session_b.join().expect("session m2 completes");

    control.send(r#"{"v":2,"verb":"quit"}"#);
    control.recv_ok();
    handle.join().unwrap().unwrap();

    assert_eq!(
        serde_json::to_string(&zeroed(&rounds_a)).unwrap(),
        serde_json::to_string(&reference_a).unwrap(),
        "market m1 diverged under pipelined sessions"
    );
    assert_eq!(
        serde_json::to_string(&zeroed(&rounds_b)).unwrap(),
        serde_json::to_string(&reference_b).unwrap(),
        "market m2 diverged under pipelined sessions"
    );
}
