//! Integration tests for the TCP serving frontend: concurrent clients,
//! every decoding mode, and protocol error handling.

use vllm::core::{CacheConfig, LlmEngine, SchedulerConfig};
use vllm::frontend::{Client, Server};
use vllm::model::{CpuModelExecutor, ModelConfig};

fn spawn_server() -> Server {
    spawn_server_on("127.0.0.1:0")
}

/// The engine every server of this file runs (a standalone one computes
/// real KV for `HANDOFF` payloads).
fn small_engine() -> LlmEngine<CpuModelExecutor> {
    let cache = CacheConfig::new(16, 256, 64).unwrap();
    let sched = SchedulerConfig::new(2048, 64, 1024).unwrap();
    let exec = CpuModelExecutor::from_config(ModelConfig::small(), &cache);
    LlmEngine::new(exec, cache, sched)
}

fn spawn_server_on(addr: &str) -> Server {
    Server::spawn(addr, small_engine()).expect("server binds")
}

#[test]
fn greedy_request_round_trip() {
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let outs = client.generate("hello world", 12, 1, "greedy").unwrap();
    assert_eq!(outs.len(), 1);
    assert!(!outs[0].text.is_empty() || outs[0].text.is_empty()); // Text may decode specials away.
                                                                  // Greedy is deterministic: a second call matches.
    let outs2 = client.generate("hello world", 12, 1, "greedy").unwrap();
    assert_eq!(outs[0].text, outs2[0].text);
    server.shutdown();
}

#[test]
fn sampling_and_beam_modes() {
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let samples = client.generate("tell me a story", 8, 3, "sample").unwrap();
    assert_eq!(samples.len(), 3);
    let beams = client.generate("tell me a story", 8, 2, "beam").unwrap();
    assert_eq!(beams.len(), 2);
    // Beam outputs sorted by cumulative logprob.
    assert!(beams[0].cumulative_logprob >= beams[1].cumulative_logprob);
    server.shutdown();
}

#[test]
fn concurrent_clients_are_batched() {
    let server = spawn_server();
    let addr = server.addr();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let prompt = format!("client {i} says something unique");
                client.generate(&prompt, 16, 1, "greedy").unwrap()
            })
        })
        .collect();
    for h in handles {
        let outs = h.join().expect("client thread");
        assert_eq!(outs.len(), 1);
    }
    server.shutdown();
}

#[test]
fn protocol_errors_reported() {
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).unwrap();
    // Unknown mode.
    let err = client.generate("x", 4, 1, "nucleus").unwrap_err();
    assert!(err.to_string().contains("unknown mode"));
    // Greedy with n > 1.
    let err = client.generate("x", 4, 3, "greedy").unwrap_err();
    assert!(err.to_string().contains("n=1"));
    // The connection stays usable after errors.
    let outs = client.generate("x", 4, 1, "greedy").unwrap();
    assert_eq!(outs.len(), 1);
    server.shutdown();
}

#[test]
fn many_sequential_requests_one_connection() {
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..8 {
        let outs = client
            .generate(&format!("request number {i}"), 4, 1, "greedy")
            .unwrap();
        assert_eq!(outs.len(), 1);
    }
    server.shutdown();
}

#[test]
fn stats_endpoint_reports_state() {
    use std::io::{BufRead, BufReader, Write};
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .generate("warm up the counters", 6, 1, "greedy")
        .unwrap();

    // Raw protocol query.
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "STATS").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("STATS\t"), "got {line:?}");
    assert!(line.contains("finished=1"), "got {line:?}");
    assert!(line.contains("total_blocks=256"), "got {line:?}");
    assert!(line.contains("\tsteps="), "got {line:?}");
    assert!(line.contains("\tschedule_time="), "got {line:?}");

    // Programmatic accessor agrees.
    let stats = server.stats();
    assert_eq!(stats.finished, 1);
    assert_eq!(stats.total_blocks, 256);
    assert_eq!(stats.free_blocks, 256);
    // Trace-derived pipeline counters: the warm-up request ran real steps.
    assert!(stats.steps > 0);
    assert!(stats.tokens_scheduled > 0);
    assert!(stats.execute_time > 0.0);
    // Latency percentiles from the finished request.
    assert!(line.contains("\tnorm_lat_p50="), "got {line:?}");
    assert!(line.contains("\tttft_p99="), "got {line:?}");
    assert!(stats.norm_lat_mean > 0.0);
    assert!(stats.norm_lat_p50 > 0.0);
    assert!(stats.ttft_mean > 0.0);
    assert!(stats.ttft_p50 <= stats.ttft_p99);
    server.shutdown();
}

/// The snapshot is published on startup, not only after the first step: a
/// fresh server must already report its block pool.
#[test]
fn stats_fresh_before_any_request() {
    let server = spawn_server();
    // The engine thread seeds the snapshot right after spawn; give it a
    // moment on slow machines.
    let mut stats = server.stats();
    for _ in 0..100 {
        if stats.total_blocks != 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        stats = server.stats();
    }
    assert_eq!(stats.total_blocks, 256);
    assert_eq!(stats.free_blocks, 256);
    assert_eq!(stats.finished, 0);
    server.shutdown();
}

/// Reads protocol lines until `END`, returning them without the terminator.
fn read_until_end(reader: &mut impl std::io::BufRead) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => panic!("read: {e}"),
        }
        let line = line.trim_end().to_string();
        if line == "END" {
            break;
        }
        lines.push(line);
    }
    lines
}

/// `METRICS` (Prometheus text) and `METRICS\tjson` must expose the same
/// snapshot, and both round-trip losslessly through their parsers.
#[test]
fn metrics_endpoint_text_and_json_agree() {
    use std::io::{BufRead, BufReader, Write};
    use vllm::core::telemetry::MetricsSnapshot;

    let server = spawn_server();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .generate("warm up the registry", 6, 1, "greedy")
        .unwrap();

    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    writeln!(writer, "METRICS").unwrap();
    let text = read_until_end(&mut reader).join("\n") + "\n";
    let from_text = MetricsSnapshot::from_prometheus_text(&text).expect("text exposition parses");

    writeln!(writer, "METRICS\tjson").unwrap();
    let mut json = String::new();
    reader.read_line(&mut json).unwrap();
    let from_json = MetricsSnapshot::from_json(json.trim_end()).expect("JSON exposition parses");

    // The engine is idle between the two queries, so the snapshots match.
    assert_eq!(from_text, from_json);
    assert_eq!(
        from_text.counter("vllm_engine_requests_finished_total"),
        Some(1)
    );
    assert!(from_text.gauge("vllm_block_manager_gpu_blocks_total") == Some(256.0));
    let ttft = from_text.histogram("vllm_request_ttft_seconds").unwrap();
    assert_eq!(ttft.count, 1);
    assert!(ttft.min > 0.0);
    server.shutdown();
}

/// `EVENTS\t<request_id>` replays the request's lifecycle in order.
#[test]
fn events_endpoint_replays_lifecycle() {
    use std::io::{BufReader, Write};

    let server = spawn_server();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .generate("trace my lifecycle", 5, 1, "greedy")
        .unwrap();

    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // Server-assigned ids start at req-0.
    writeln!(writer, "EVENTS\treq-0").unwrap();
    let lines = read_until_end(&mut reader);
    assert!(!lines.is_empty(), "lifecycle must be recorded");
    let kinds: Vec<&str> = lines
        .iter()
        .map(|l| l.split('\t').nth(2).expect("EVENT kind field"))
        .collect();
    assert_eq!(kinds.first(), Some(&"arrived"));
    assert!(kinds.contains(&"scheduled"));
    assert!(kinds.contains(&"first_token"));
    assert_eq!(kinds.last(), Some(&"finished"));
    for l in &lines {
        assert!(l.starts_with("EVENT\t"), "got {l:?}");
    }

    // Unknown ids are distinguished from evicted ones instead of silently
    // yielding an empty reply.
    writeln!(writer, "EVENTS\tno-such-request").unwrap();
    assert_eq!(read_until_end(&mut reader), vec!["NOEVENTS\tunknown"]);
    server.shutdown();
}

#[test]
fn trace_endpoint_serves_request_spans() {
    use std::io::{BufRead, BufReader, Write};

    let server = spawn_server();
    let mut client = Client::connect(server.addr()).unwrap();

    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let read_line = |reader: &mut BufReader<std::net::TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };

    // Supply the trace context explicitly so the test knows the trace id.
    let trace_id = "00000000000000ab";
    writeln!(
        writer,
        "GENERATE\tmax_tokens=4\tmode=greedy\ttrace={trace_id}-00000000000000cd-1\tping"
    )
    .unwrap();
    loop {
        let line = read_line(&mut reader);
        assert!(!line.starts_with("ERR"), "generate failed: {line}");
        if line == "END" {
            break;
        }
    }

    writeln!(writer, "TRACE\t{trace_id}").unwrap();
    let dump = read_line(&mut reader);
    assert!(dump.starts_with("{\"tracks\":"), "got {dump:?}");
    assert!(
        dump.contains("\"attempt\""),
        "span dump lacks the attempt span"
    );
    assert!(dump.contains(trace_id), "span dump lacks the trace id");

    // A trace nobody recorded yields an empty (but well-formed) dump.
    writeln!(writer, "TRACE\tdeadbeefdeadbeef").unwrap();
    assert_eq!(read_line(&mut reader), "{\"tracks\":[]}");

    // Malformed ids get a structured error.
    writeln!(writer, "TRACE\tnot-hex").unwrap();
    assert!(read_line(&mut reader).starts_with("ERR\t"));

    // Generating without a trace= field mints a context server-side; the
    // connection stays usable after the errors above.
    let outs = client.generate("hello again", 4, 1, "greedy").unwrap();
    assert_eq!(outs.len(), 1);
    server.shutdown();
}

/// Every malformed request line must get an `ERR\t<message>` reply and
/// leave the connection usable.
#[test]
fn malformed_requests_all_get_err() {
    use std::io::{BufRead, BufReader, Write};

    // (line, substring the error must mention)
    let cases: &[(&str, &str)] = &[
        ("GENERATE", "max_tokens"),
        // The positional v1 form is retired wholesale: any numeric second
        // field maps to a protocol error naming the typed replacement.
        ("GENERATE\t12", "positional GENERATE was removed"),
        ("GENERATE\t12\t1", "positional GENERATE was removed"),
        (
            "GENERATE\t12\t1\tgreedy\thi",
            "positional GENERATE was removed",
        ),
        (
            "GENERATE\t0\t1\tgreedy\thi",
            "positional GENERATE was removed",
        ),
        // Typed form: missing/bad required fields.
        ("GENERATE\tmode=greedy\thi", "max_tokens"),
        ("GENERATE\tmax_tokens=abc\tmode=greedy\thi", "max_tokens"),
        ("GENERATE\tmax_tokens=12\thi", "mode"),
        ("GENERATE\tmax_tokens=12\tn=x\tmode=greedy\thi", "n"),
        ("GENERATE\tmax_tokens=12\tmode=greedy", "prompt"),
        ("GENERATE\tmax_tokens=12\tmode=turbo\thi", "unknown mode"),
        ("GENERATE\tmax_tokens=12\tn=3\tmode=greedy\thi", "n=1"),
        ("GENERATE\tmax_tokens=0\tmode=greedy\thi", "max_tokens"),
        // Sampling fields validate per mode.
        (
            "GENERATE\tmax_tokens=12\tmode=greedy\ttemperature=0.5\thi",
            "sample",
        ),
        (
            "GENERATE\tmax_tokens=12\tn=2\tmode=beam\ttop_p=0.9\thi",
            "sample",
        ),
        (
            "GENERATE\tmax_tokens=12\tmode=sample\ttemperature=abc\thi",
            "temperature",
        ),
        (
            "GENERATE\tmax_tokens=12\tmode=sample\ttop_p=zzz\thi",
            "top_p",
        ),
        ("GENERATE\tmax_tokens=12\tmode=sample\tseed=-1\thi", "seed"),
        (
            "GENERATE\tmax_tokens=12\tmode=sample\ttop_p=1.5\thi",
            "top_p",
        ),
        (
            "GENERATE\tmax_tokens=12\tmode=sample\ttemperature=0\thi",
            "temperature",
        ),
        ("STATS\textra", "STATS"),
        ("METRICS\txml", "METRICS"),
        ("EVENTS", "request id"),
        ("EVENTS\ta\tb", "request id"),
        ("TIER\tnow", "TIER"),
        ("HANDOFF", "payload"),
        ("HANDOFF\tzz-not-hex", "hex"),
        ("HELLO", "version"),
        ("HELLO\tversion=999", "unsupported protocol version"),
        ("SHUTDOWN\tnow", "SHUTDOWN"),
        ("FLUSH", "unknown verb"),
        ("generate\t4\t1\tgreedy\thi", "unknown verb"),
        // Unknown key=value fields are rejected, not swallowed into the
        // prompt.
        (
            "GENERATE\tmax_tokens=12\tmode=sample\ttemprature=0.5\thi",
            "unknown field",
        ),
        (
            "GENERATE\tmax_tokens=12\tn=1\tmode=sample\ttop=0.9\thi",
            "unknown field",
        ),
        // Degradation fields validate too.
        (
            "GENERATE\tmax_tokens=12\tmode=greedy\tdeadline=-1\thi",
            "deadline",
        ),
        (
            "GENERATE\tmax_tokens=12\tmode=greedy\tpriority=soon\thi",
            "priority",
        ),
    ];

    let server = spawn_server();
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for (line, needle) in cases {
        writeln!(writer, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let reply = reply.trim_end();
        assert!(reply.starts_with("ERR\t"), "{line:?} => {reply:?}");
        assert!(
            reply.contains(needle),
            "{line:?} => {reply:?} (wanted {needle:?})"
        );
    }
    // The connection survives the whole gauntlet.
    writeln!(writer, "GENERATE\tmax_tokens=4\tmode=greedy\tstill alive").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("OK\t"), "got {reply:?}");
    server.shutdown();
}

/// Explicit `seed=` makes sampling reproducible across connections; the
/// optional `temperature=`/`top_p=` fields are accepted for mode `sample`.
#[test]
fn sampling_seed_is_reproducible() {
    use vllm::frontend::GenerateOptions;

    let server = spawn_server();
    let opts = GenerateOptions {
        temperature: Some(0.8),
        top_p: Some(0.95),
        seed: Some(7),
        ..GenerateOptions::default()
    };
    let mut a = Client::connect(server.addr()).unwrap();
    let first = a.generate_with("same seed", 10, 2, "sample", opts).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    let second = b.generate_with("same seed", 10, 2, "sample", opts).unwrap();
    assert_eq!(first, second, "seeded sampling must be deterministic");
    server.shutdown();
}

/// `SHUTDOWN` mid-generation drains: the in-flight request still completes
/// and is delivered before the server exits.
#[test]
fn shutdown_drains_in_flight_requests() {
    let server = spawn_server();
    let addr = server.addr();
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.generate("a long running generation", 192, 1, "greedy")
    });
    // Wait until the request is actually on the engine.
    for _ in 0..500 {
        let s = server.stats();
        if s.running + s.waiting > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let mut admin = Client::connect(addr).unwrap();
    assert_eq!(admin.shutdown_server().unwrap(), "OK\tshutdown");
    let outs = worker
        .join()
        .expect("client thread")
        .expect("generation completes");
    assert_eq!(outs.len(), 1);
    let stats = server.stats();
    assert_eq!(stats.finished, 1, "the in-flight request must finish");
    drop(server);
}

/// `ERR` replies are typed: `ERR\t<kind>\t<retryable>\t<message>`, so
/// clients can mechanically split "fix the request" from "retry later".
#[test]
fn err_replies_carry_kind_and_retryability() {
    use std::io::{BufRead, BufReader, Write};

    let server = spawn_server();
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    writeln!(writer, "GENERATE\tmax_tokens=12\tmode=nucleus\thi").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let reply = reply.trim_end();
    let fields: Vec<&str> = reply.splitn(4, '\t').collect();
    assert_eq!(fields[0], "ERR", "got {reply:?}");
    assert_eq!(fields[1], "request", "got {reply:?}");
    assert_eq!(fields[2], "false", "got {reply:?}");
    assert!(fields[3].contains("unknown mode"), "got {reply:?}");

    // Unknown fields carry the same taxonomy.
    writeln!(writer, "GENERATE\tmax_tokens=12\tmode=sample\tzzz=1\thi").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let reply = reply.trim_end();
    assert!(reply.starts_with("ERR\trequest\tfalse\t"), "got {reply:?}");
    assert!(reply.contains("unknown field"), "got {reply:?}");

    // Frame-shape problems are `protocol` kind: the retired positional
    // form, and unknown verbs.
    writeln!(writer, "GENERATE\t12\t1\tgreedy\thi").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let reply = reply.trim_end();
    assert!(reply.starts_with("ERR\tprotocol\tfalse\t"), "got {reply:?}");
    assert!(
        reply.contains("positional GENERATE was removed"),
        "got {reply:?}"
    );
    writeln!(writer, "FLUSH").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.trim_end().starts_with("ERR\tprotocol\tfalse\t"),
        "got {reply:?}"
    );
    server.shutdown();
}

/// The typed `key=value` `GENERATE` form (what `Client` now emits) serves
/// requests end to end, including the new deadline/priority fields.
#[test]
fn typed_generate_form_round_trips_with_deadline_and_priority() {
    use vllm::frontend::GenerateOptions;

    let server = spawn_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let opts = GenerateOptions {
        deadline: Some(30.0), // Generous: the request finishes well within.
        priority: Some(2),
        ..GenerateOptions::default()
    };
    let outs = client
        .generate_with("typed form request", 6, 1, "greedy", opts)
        .unwrap();
    assert_eq!(outs.len(), 1);
    server.shutdown();
}

/// A request whose deadline expires mid-decode is cancelled: the reply is
/// well-formed but carries no outputs, and the engine counts the miss.
#[test]
fn missed_deadline_cancels_request() {
    use vllm::frontend::GenerateOptions;

    let server = spawn_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let opts = GenerateOptions {
        deadline: Some(1e-6), // Expires after the first engine step.
        ..GenerateOptions::default()
    };
    let outs = client
        .generate_with(
            "this cannot finish in a microsecond",
            128,
            1,
            "greedy",
            opts,
        )
        .unwrap();
    assert!(outs.is_empty(), "expired deadline must cancel: {outs:?}");
    let snap = server.telemetry().registry().snapshot();
    assert_eq!(
        snap.counter("vllm_engine_deadline_cancellations_total"),
        Some(1)
    );
    let miss = snap
        .histogram("vllm_request_deadline_miss_seconds")
        .expect("miss histogram registered");
    assert_eq!(miss.count, 1);
    server.shutdown();
}

/// Killing a replica mid-generation loses nothing: the in-flight request is
/// re-routed to a surviving replica and still completes, and the cluster
/// keeps serving afterwards.
#[test]
fn killed_replica_requests_are_rerouted() {
    use vllm::cluster::{ClusterConfig, RoutePolicy};

    let engines: Vec<_> = (0..2)
        .map(|_| {
            let cache = CacheConfig::new(16, 256, 64).unwrap();
            let sched = SchedulerConfig::new(2048, 64, 1024).unwrap();
            let exec = CpuModelExecutor::from_config(ModelConfig::small(), &cache);
            LlmEngine::new(exec, cache, sched)
        })
        .collect();
    let server = Server::spawn_cluster(
        "127.0.0.1:0",
        engines,
        ClusterConfig::new(2).with_policy(RoutePolicy::RoundRobin),
    )
    .expect("server binds");
    let addr = server.addr();

    // Round-robin sends the first request to replica 0; let it get going,
    // then kill that replica under it.
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.generate("a long generation to interrupt", 192, 1, "greedy")
    });
    for _ in 0..500 {
        let s = &server.replica_stats()[0];
        if s.running + s.waiting > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    server.kill_replica(0);

    // The client still gets its answer (re-routed, or finished pre-kill).
    let outs = worker
        .join()
        .expect("client thread")
        .expect("request survives the kill");
    assert_eq!(outs.len(), 1);

    // The surviving replica keeps serving new requests.
    let mut client = Client::connect(addr).unwrap();
    let outs = client.generate("after the kill", 8, 1, "greedy").unwrap();
    assert_eq!(outs.len(), 1);
    server.shutdown();
}

/// Multi-replica server: requests spread across replicas, `STATS` reports
/// the aggregate plus per-replica `RSTATS` lines, and `METRICS` merges the
/// per-replica registries under `{replica="i"}` labels plus the router's
/// own counters — losslessly in both expositions.
#[test]
fn cluster_server_round_robin_end_to_end() {
    use std::io::{BufRead, BufReader, Write};
    use vllm::cluster::{ClusterConfig, RoutePolicy};
    use vllm::core::telemetry::MetricsSnapshot;

    let engines: Vec<_> = (0..2)
        .map(|_| {
            let cache = CacheConfig::new(16, 256, 64).unwrap();
            let sched = SchedulerConfig::new(2048, 64, 1024).unwrap();
            let exec = CpuModelExecutor::from_config(ModelConfig::small(), &cache);
            LlmEngine::new(exec, cache, sched)
        })
        .collect();
    let server = Server::spawn_cluster(
        "127.0.0.1:0",
        engines,
        ClusterConfig::new(2).with_policy(RoutePolicy::RoundRobin),
    )
    .expect("server binds");
    let addr = server.addr();

    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let prompt = format!("cluster client {i}");
                client.generate(&prompt, 8, 1, "greedy").unwrap()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("client thread").len(), 1);
    }

    // Aggregate stats count all four requests across both replicas.
    assert_eq!(server.stats().finished, 4);
    let per_replica = server.replica_stats();
    assert_eq!(per_replica.len(), 2);
    assert_eq!(per_replica.iter().map(|s| s.finished).sum::<u64>(), 4);
    // Round-robin with one request at a time lands on both replicas.
    assert!(
        per_replica.iter().all(|s| s.finished > 0),
        "{per_replica:?}"
    );

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // STATS: aggregate line, one RSTATS per replica, END.
    writeln!(writer, "STATS").unwrap();
    let mut agg = String::new();
    reader.read_line(&mut agg).unwrap();
    assert!(agg.starts_with("STATS\t"), "got {agg:?}");
    assert!(agg.contains("finished=4"), "got {agg:?}");
    let rstats = read_until_end(&mut reader);
    assert_eq!(rstats.len(), 2, "got {rstats:?}");
    assert!(rstats[0].starts_with("RSTATS\t0\t"), "got {:?}", rstats[0]);
    assert!(rstats[1].starts_with("RSTATS\t1\t"), "got {:?}", rstats[1]);

    // METRICS: labeled per-replica names plus router counters, identical
    // through both expositions.
    writeln!(writer, "METRICS").unwrap();
    let text = read_until_end(&mut reader).join("\n") + "\n";
    let from_text = MetricsSnapshot::from_prometheus_text(&text).expect("text exposition parses");
    writeln!(writer, "METRICS\tjson").unwrap();
    let mut json = String::new();
    reader.read_line(&mut json).unwrap();
    let from_json = MetricsSnapshot::from_json(json.trim_end()).expect("JSON exposition parses");
    assert_eq!(from_text, from_json);
    assert_eq!(
        from_text.counter("vllm_cluster_requests_routed_total"),
        Some(4)
    );
    let labeled_finished: u64 = (0..2)
        .map(|i| {
            from_text
                .counter(&format!(
                    "vllm_engine_requests_finished_total{{replica=\"{i}\"}}"
                ))
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(labeled_finished, 4);
    let routed: u64 = (0..2)
        .map(|i| {
            from_text
                .counter(&format!(
                    "vllm_cluster_replica_routed_total{{replica=\"{i}\"}}"
                ))
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(routed, 4);
    server.shutdown();
}

/// `HELLO` negotiates the protocol version: matching versions get the
/// server's `HELLO` back, mismatches get a non-retryable `protocol` error,
/// and the connection stays usable either way.
#[test]
fn hello_negotiates_protocol_version() {
    use std::io::{BufRead, BufReader, Write};
    use vllm::protocol::PROTOCOL_VERSION;

    let server = spawn_server();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.hello().unwrap(), PROTOCOL_VERSION);

    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "HELLO\tversion=1").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let reply = reply.trim_end();
    assert!(reply.starts_with("ERR\tprotocol\tfalse\t"), "got {reply:?}");
    assert!(
        reply.contains(&format!("server speaks {PROTOCOL_VERSION}")),
        "got {reply:?}"
    );
    // Skew is reported, not fatal: the same connection still serves.
    writeln!(writer, "HELLO\tversion={PROTOCOL_VERSION}").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(
        reply.trim_end(),
        format!("HELLO\tversion={PROTOCOL_VERSION}")
    );
    server.shutdown();
}

/// Spawns a 1 prefill + 1 decode fleet with a shared prefix tier.
fn spawn_disaggregated() -> Server {
    use vllm::cluster::ClusterConfig;

    let engines: Vec<_> = (0..2).map(|_| small_engine()).collect();
    let cfg = ClusterConfig::disaggregated(1, 1).with_prefix_tier_blocks(128);
    Server::spawn_cluster("127.0.0.1:0", engines, cfg).expect("server binds")
}

/// Disaggregated serving is an implementation detail of the fleet, not a
/// semantics change: a greedy request through the prefill→handoff→decode
/// path yields the same tokens as the same request on a unified server,
/// repeated requests hit the shared prefix tier, and the handoff counters
/// and `TIER` snapshot expose the mechanics.
#[test]
fn disaggregated_serving_matches_unified_output() {
    use std::io::{BufRead, BufReader, Write};
    use vllm::cluster::ReplicaRole;

    let prompt = "the quick brown fox jumps over the lazy dog";

    let unified = spawn_server();
    let mut c = Client::connect(unified.addr()).unwrap();
    let expect = c.generate(prompt, 24, 1, "greedy").unwrap();
    unified.shutdown();
    assert_eq!(expect.len(), 1);

    let server = spawn_disaggregated();
    assert_eq!(server.roles(), &[ReplicaRole::Prefill, ReplicaRole::Decode]);
    let mut client = Client::connect(server.addr()).unwrap();
    client.hello().unwrap();
    for round in 0..2 {
        let outs = client.generate(prompt, 24, 1, "greedy").unwrap();
        assert_eq!(outs.len(), 1, "round {round}");
        assert_eq!(
            outs[0].text, expect[0].text,
            "disaggregated greedy must be token-identical (round {round})"
        );
        // Stitched stub+decode logprob sums the same per-token terms in a
        // different association order; allow float slack.
        assert!(
            (outs[0].cumulative_logprob - expect[0].cumulative_logprob).abs() < 1e-3,
            "round {round}: {} vs {}",
            outs[0].cumulative_logprob,
            expect[0].cumulative_logprob
        );
    }

    // The prefill phase ran on replica 0, the decode continuation on
    // replica 1.
    let per_replica = server.replica_stats();
    assert!(per_replica[0].finished >= 2, "{per_replica:?}");
    assert!(per_replica[1].finished >= 2, "{per_replica:?}");

    // Round 1 exported and published the prompt's block-aligned prefix;
    // round 2 found it in the tier.
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "TIER").unwrap();
    let mut tier = String::new();
    reader.read_line(&mut tier).unwrap();
    let tier = tier.trim_end();
    assert!(tier.starts_with("TIER\tentries="), "got {tier:?}");
    assert!(tier.contains("capacity=128"), "got {tier:?}");
    let field = |k: &str| -> u64 {
        tier.split('\t')
            .filter_map(|p| p.split_once('='))
            .find(|(key, _)| *key == k)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("field {k} in {tier:?}"))
    };
    assert!(field("insertions") >= 1, "got {tier:?}");
    assert!(field("hits") >= 1, "got {tier:?}");
    assert!(field("entries") >= 1, "got {tier:?}");

    // The frontend's handoff instruments counted both two-phase flows.
    writeln!(writer, "METRICS\tjson").unwrap();
    let mut json = String::new();
    reader.read_line(&mut json).unwrap();
    let snap = vllm::core::telemetry::MetricsSnapshot::from_json(json.trim_end()).unwrap();
    assert!(
        snap.counter("vllm_cluster_handoffs_total").unwrap_or(0) >= 2,
        "handoffs must be counted"
    );
    assert!(
        snap.counter("vllm_cluster_handoff_blocks_total")
            .unwrap_or(0)
            >= 1,
        "shipped blocks must be counted"
    );
    server.shutdown();
}

/// Killing a decode replica under a live disaggregated fleet: the requests
/// decoding on it restart their whole flow on a fresh route, every client
/// still gets exactly one reply — byte-equal to a unified server's — and no
/// surviving replica is left holding a block.
#[test]
fn killed_decode_replica_restarts_handoffs_without_leaks() {
    use std::io::{BufRead, BufReader, Write};
    use vllm::cluster::ClusterConfig;

    let prompts: Vec<String> = (0..6)
        .map(|i| format!("client {i} asks: tell me a long story about paged attention"))
        .collect();
    let unified = spawn_server();
    let mut c = Client::connect(unified.addr()).unwrap();
    let expect: Vec<String> = prompts
        .iter()
        .map(|p| c.generate(p, 96, 1, "greedy").unwrap().remove(0).text)
        .collect();
    unified.shutdown();

    let engines: Vec<_> = (0..3)
        .map(|_| {
            let cache = CacheConfig::new(16, 256, 64).unwrap();
            let sched = SchedulerConfig::new(2048, 64, 1024).unwrap();
            let exec = CpuModelExecutor::from_config(ModelConfig::small(), &cache);
            LlmEngine::new(exec, cache, sched)
        })
        .collect();
    let cfg = ClusterConfig::disaggregated(1, 2).with_prefix_tier_blocks(128);
    let server = Server::spawn_cluster("127.0.0.1:0", engines, cfg).expect("server binds");
    let addr = server.addr();

    let clients: Vec<_> = prompts
        .iter()
        .cloned()
        .map(|prompt| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.generate(&prompt, 96, 1, "greedy")
            })
        })
        .collect();
    // Kill decode replica 1 once a decode phase is running on it.
    for _ in 0..2000 {
        let s = &server.replica_stats()[1];
        if s.running + s.waiting > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    server.kill_replica(1);

    for (client, want) in clients.into_iter().zip(&expect) {
        let outs = client
            .join()
            .expect("client thread")
            .expect("request survives the kill");
        assert_eq!(outs.len(), 1, "exactly one reply");
        assert_eq!(
            &outs[0].text, want,
            "retried handoff must not change the text"
        );
    }

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "METRICS\tjson").unwrap();
    let mut json = String::new();
    reader.read_line(&mut json).unwrap();
    let snap = vllm::core::telemetry::MetricsSnapshot::from_json(json.trim_end()).unwrap();
    assert!(
        snap.counter("vllm_cluster_handoff_retries_total")
            .unwrap_or(0)
            > 0,
        "the kill must have failed at least one handoff attempt"
    );
    assert_eq!(snap.counter("vllm_cluster_handoffs_total"), Some(6));

    // Nothing was pinned on the way: the survivors' pools are whole (the
    // snapshot after a prefill stub's last step is published just before
    // its reply, the decode's may lag its client's, hence the short wait).
    for i in [0, 2] {
        let mut s = server.replica_stats()[i];
        for _ in 0..500 {
            if s.free_blocks == s.total_blocks {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            s = server.replica_stats()[i];
        }
        assert_eq!(s.free_blocks, s.total_blocks, "replica {i} leaked: {s:?}");
        assert_eq!(s.running + s.waiting + s.swapped, 0);
    }
    server.shutdown();
}

/// The `HANDOFF` verb installs an externally serialized KV prefix into the
/// decode pool and publishes it to the tier, so a later `GENERATE`
/// extending those tokens reuses it.
#[test]
fn handoff_verb_preseeds_the_decode_pool() {
    use std::io::{BufRead, BufReader, Write};
    use vllm::core::{HandoffPayload, SamplingParams};
    use vllm::model::ByteTokenizer;

    // Export a real prefix: what a finished request left in a standalone
    // engine's block cache.
    let mut engine = small_engine();
    let prefix_text = "a shared system preamble that spans blocks!"; // 44 bytes
    let prompt = ByteTokenizer.encode(prefix_text);
    let tokens: Vec<u32> = prompt[..32].to_vec();
    engine
        .add_request("warm", prompt, SamplingParams::greedy(1))
        .unwrap();
    engine.run_to_completion().unwrap();
    let (ptokens, blocks) = engine.export_kv(&tokens);
    assert_eq!(ptokens, tokens);
    let payload = HandoffPayload {
        request_id: "preseed".into(),
        tokens: tokens.clone(),
        first_token: None,
        seed: 0,
        block_size: 16,
        blocks,
    };
    let server = spawn_disaggregated();
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "HANDOFF\t{}", payload.encode_wire()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    // The payload routed to the decode pool; nothing names a pin.
    assert_eq!(reply.trim_end(), "HANDOFF\treplica=1\tblocks=2");

    // The tier now holds the pre-seeded entry...
    writeln!(writer, "TIER").unwrap();
    let mut tier = String::new();
    reader.read_line(&mut tier).unwrap();
    assert!(
        tier.contains("insertions=1") && tier.contains("blocks=2"),
        "got {tier:?}"
    );

    // ...and a request extending the pre-seeded tokens finds it there (tier
    // hit on the prefill side of the two-phase flow) and in the decode
    // replica's cache, where its decode phase maps both blocks.
    let mut client = Client::connect(server.addr()).unwrap();
    let outs = client.generate(prefix_text, 8, 1, "greedy").unwrap();
    assert_eq!(outs.len(), 1);
    writeln!(writer, "TIER").unwrap();
    let mut tier = String::new();
    reader.read_line(&mut tier).unwrap();
    assert!(tier.contains("hits=1"), "got {tier:?}");
    writeln!(writer, "METRICS\tjson").unwrap();
    let mut json = String::new();
    reader.read_line(&mut json).unwrap();
    let snap = vllm::core::telemetry::MetricsSnapshot::from_json(json.trim_end()).unwrap();
    for replica in 0..2 {
        let name = format!("vllm_cache_prefix_hit_tokens_total{{replica=\"{replica}\"}}");
        assert_eq!(snap.counter(&name), Some(32), "{name}");
    }
    server.shutdown();
}

/// `HANDOFF` installs into free blocks, so no number of frames can pin a
/// decode pool: more single-block frames than the pool has blocks all get
/// an answer, every block is free afterwards, and a `GENERATE` is admitted
/// and answered exactly as a unified server answers it.
#[test]
fn handoff_flood_cannot_pin_the_decode_pool() {
    use std::io::{BufRead, BufReader, Write};
    use vllm::cluster::ClusterConfig;
    use vllm::core::{HandoffPayload, SamplingParams};
    use vllm::protocol::Response;

    const POOL: usize = 24;
    let prompt = "does the pool still admit me after the flood?";
    let unified = spawn_server();
    let expect = Client::connect(unified.addr())
        .unwrap()
        .generate(prompt, 12, 1, "greedy")
        .unwrap();
    unified.shutdown();

    // One real block of KV; each frame ships it under different tokens no
    // prompt can spell, so every frame is new content to the pool.
    let mut engine = small_engine();
    let warm: Vec<u32> = (1..=20).collect();
    engine
        .add_request("warm", warm.clone(), SamplingParams::greedy(1))
        .unwrap();
    engine.run_to_completion().unwrap();
    let (_, block) = engine.export_kv(&warm[..16]);
    assert_eq!(block.len(), 1);

    let engines: Vec<_> = (0..2)
        .map(|_| {
            let cache = CacheConfig::new(16, POOL, 8).unwrap();
            let sched = SchedulerConfig::new(2048, 64, 1024).unwrap();
            let exec = CpuModelExecutor::from_config(ModelConfig::small(), &cache);
            LlmEngine::new(exec, cache, sched)
        })
        .collect();
    let cfg = ClusterConfig::disaggregated(1, 1).with_prefix_tier_blocks(8);
    let server = Server::spawn_cluster("127.0.0.1:0", engines, cfg).expect("server binds");
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for frame in 0..POOL as u32 + 8 {
        let payload = HandoffPayload {
            request_id: format!("flood-{frame}"),
            tokens: (0..16).map(|t| 1_000_000 + frame * 16 + t).collect(),
            first_token: None,
            seed: 0,
            block_size: 16,
            blocks: block.clone(),
        };
        writeln!(writer, "HANDOFF\t{}", payload.encode_wire()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        match Response::parse(reply.trim_end()).unwrap() {
            Response::Handoff {
                replica: 1,
                blocks: 1,
            } => {}
            Response::Err {
                retryable: true, ..
            } => {}
            other => panic!("frame {frame} answered {other:?}"),
        }
    }

    writeln!(writer, "STATS").unwrap();
    let replicas: Vec<_> = read_until_end(&mut reader)
        .iter()
        .filter_map(|line| match Response::parse(line).unwrap() {
            Response::RStats { stats, .. } => Some(stats),
            _ => None,
        })
        .collect();
    assert_eq!(replicas.len(), 2);
    for s in &replicas {
        assert_eq!((s.free_blocks, s.total_blocks), (POOL, POOL), "{s:?}");
    }
    let outs = Client::connect(server.addr())
        .unwrap()
        .generate(prompt, 12, 1, "greedy")
        .unwrap();
    assert_eq!(outs[0].text, expect[0].text);
    server.shutdown();
}

#[test]
fn request_split_across_a_read_timeout_is_served_whole() {
    use std::io::{BufRead, BufReader, Write};
    let server = spawn_server();
    let expect = Client::connect(server.addr())
        .unwrap()
        .generate("split me in two", 6, 1, "greedy")
        .unwrap();

    // The same request as two writes 250 ms apart — more than two of the
    // handler's 100 ms read timeouts pass with half a line received.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .write_all(b"GENERATE\tmax_tokens=6\tn=1\tmode=gre")
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(250));
    stream.write_all(b"edy\tsplit me in two\n").unwrap();
    let lines = read_until_end(&mut BufReader::new(stream.try_clone().unwrap()));
    assert!(
        lines[0].starts_with("OK\t"),
        "first reply line {:?}",
        lines[0]
    );
    let text = lines[1].splitn(4, '\t').nth(3).unwrap();
    assert_eq!(text, expect[0].text);
    assert_eq!(lines.len(), 2, "one OK and one OUT line before END");

    // The connection is still in step: the next exchange gets its own reply.
    stream.write_all(b"HELLO\tversion=2\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "HELLO\tversion=2");
    server.shutdown();
}

#[test]
fn fifty_hellos_in_a_row_all_succeed_quickly() {
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut round_trips = Vec::new();
    for _ in 0..50 {
        let start = std::time::Instant::now();
        assert_eq!(client.hello().unwrap(), vllm::protocol::PROTOCOL_VERSION);
        round_trips.push(start.elapsed());
    }
    round_trips.sort();
    // With Nagle on and the reply in several writes, every exchange after
    // the first waited ~40 ms for a delayed ACK.
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(20),
        "median HELLO round trip {median:?}"
    );
    server.shutdown();
}

#[test]
fn idle_server_shuts_down_without_a_poll() {
    // The accept loop sleeps in `accept` instead of polling every 2 ms, so
    // shutdown has to wake it — also when nobody ever connected and when
    // the listener's own address (the wildcard) is not one to connect to.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = spawn_server_on(addr);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("server on {addr} did not shut down"));
    }
}
