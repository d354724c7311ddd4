//! Bandwidth-free streams are a strict no-op of the resource-model
//! refactor: on an uncapacitated topology, tasks without a `bandwidth`
//! field must produce *byte-identical* output to the pre-refactor
//! service, on both the batch and the socket channel.
//!
//! The anchor is `tests/golden/palmetto_batch_pre.jsonl` — the literal
//! `sft batch --topology palmetto --tasks examples/palmetto_tasks.jsonl`
//! output captured before edges learned capacities. Response lines must
//! match byte-for-byte; of the trailing stats block only the wall-clock
//! latency line may differ.
//!
//! Palmetto is latency-free, so a second anchor,
//! `tests/golden/waxman_delay_serve.jsonl`, pins a delay-budget session
//! stream on a latency-bearing Waxman substrate (see
//! [`delay_budget_stream_is_byte_identical_to_its_anchor`]).

use sft_core::{Network, SolveOptions, Strategy, VnfCatalog};
use sft_service::protocol::{self, Request, RequestMode};
use sft_service::{EmbedService, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn golden() -> String {
    std::fs::read_to_string(repo_path("tests/golden/palmetto_batch_pre.jsonl"))
        .expect("golden anchor file")
}

fn golden_responses() -> Vec<String> {
    golden()
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(String::from)
        .collect()
}

/// The exact network `sft batch --topology palmetto` builds: every node a
/// 3.0-capacity server, uniform setup cost 1.0, catalog of 3 types.
fn palmetto_network() -> Network {
    Network::builder(sft_topology::palmetto::graph(), VnfCatalog::uniform(3))
        .all_servers(3.0)
        .unwrap()
        .uniform_setup_cost(1.0)
        .unwrap()
        .build()
        .unwrap()
}

#[test]
fn batch_output_is_byte_identical_to_the_pre_refactor_anchor() {
    let tasks = repo_path("examples/palmetto_tasks.jsonl");
    let argv: Vec<String> = [
        "batch",
        "--topology",
        "palmetto",
        "--tasks",
        tasks.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = sft_cli::run(&argv).expect("batch runs");

    let golden = golden();
    let want: Vec<&str> = golden.lines().collect();
    let got: Vec<&str> = out.lines().collect();
    assert_eq!(got.len(), want.len(), "line count drifted:\n{out}");
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if w.starts_with("solve latency") {
            assert!(g.starts_with("solve latency"), "line {i}: {g}");
            continue;
        }
        assert_eq!(g, w, "line {i} drifted from the pre-refactor anchor");
    }
    // The refactor's new stats line must NOT appear: palmetto links are
    // uncapacitated, so the legacy render shape is preserved exactly.
    assert!(!out.contains("link util"), "{out}");
}

/// The QoS extension is strictly additive on the wire: replaying the
/// anchor stream with a loose `delay_budget_ms` on every request yields
/// responses that differ from the golden lines *only* by the appended
/// `max_path_delay` field — embeddings, costs, and ids are untouched —
/// and a structurally impossible budget is refused as `delay_infeasible`.
#[test]
fn delay_budget_requests_only_append_the_achieved_delay() {
    let svc =
        EmbedService::new(palmetto_network(), Strategy::Msa, SolveOptions::default()).unwrap();
    let mut handle = sft_service::serve(svc, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr().unwrap();

    let text = std::fs::read_to_string(repo_path("examples/palmetto_tasks.jsonl")).unwrap();
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let want = golden_responses();
    let mut got = Vec::new();
    for (lineno, parsed) in protocol::parse_stream(&text) {
        let Ok(Request::Embed(mut req)) = parsed else {
            panic!("the anchor stream is all-embed");
        };
        req.id = req.id.or(Some(lineno as u64));
        req.mode = Some(RequestMode::Commit);
        // Palmetto is latency-free, so delay == cost and any generous
        // budget admits; the embedding must not change.
        req.delay_budget_ms = Some(1e6);
        writeln!(writer, "{}", req.to_json()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        got.push(line.trim().to_string());
    }
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        let stripped = match g.find(",\"max_path_delay\":") {
            Some(at) => format!("{}{}", &g[..at], &g[g.len() - 1..]),
            None => g.clone(),
        };
        assert_eq!(&stripped, w, "more than max_path_delay drifted");
        if w.contains("\"status\":\"ok\"") {
            assert!(
                g.contains("\"max_path_delay\":"),
                "budgeted ok lines report the delay: {g}"
            );
        }
    }

    // An impossible budget on the same channel is a structured refusal.
    let mut req = protocol::EmbedRequest::new(0, vec![44], vec![0]);
    req.id = Some(9_999);
    req.mode = Some(RequestMode::Quote);
    req.delay_budget_ms = Some(1e-6);
    writeln!(writer, "{}", req.to_json()).unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"code\":\"delay_infeasible\""),
        "tight budgets map onto the taxonomy: {line}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn socket_responses_are_byte_identical_to_the_pre_refactor_anchor() {
    let network = palmetto_network();
    assert!(
        !network.graph().has_edge_capacities(),
        "palmetto stays uncapacitated"
    );
    let svc = EmbedService::new(network, Strategy::Msa, SolveOptions::default()).unwrap();
    let mut handle = sft_service::serve(svc, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr().unwrap();

    let text = std::fs::read_to_string(repo_path("examples/palmetto_tasks.jsonl")).unwrap();
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let want = golden_responses();
    let mut got = Vec::new();
    for (lineno, parsed) in protocol::parse_stream(&text) {
        let Ok(Request::Embed(mut req)) = parsed else {
            panic!("the anchor stream is all-embed");
        };
        // Lockstep commit-mode requests reproduce sequential-batch
        // semantics exactly: each task commits before the next solves.
        req.id = req.id.or(Some(lineno as u64));
        req.mode = Some(RequestMode::Commit);
        writeln!(writer, "{}", req.to_json()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        got.push(line.trim().to_string());
    }
    handle.shutdown();
    handle.join();
    assert_eq!(got, want, "socket responses drifted from the anchor");
}

/// Runs the built `sft` binary with `args`, feeding `stdin`, and returns
/// its standard output.
fn sft(args: &str, stdin: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sft"))
        .args(args.split_whitespace())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn sft");
    let mut pipe = child.stdin.take().expect("piped stdin");
    let input = stdin.to_string();
    // Write from a thread: `serve` answers while it reads, so a full
    // output pipe must never wait on a blocked writer.
    let writer = std::thread::spawn(move || pipe.write_all(input.as_bytes()));
    let out = child.wait_with_output().expect("sft runs");
    writer.join().unwrap().expect("sft reads its stdin");
    assert!(out.status.success(), "sft {args} failed");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The latency-bearing anchor: the response lines of
///
/// ```text
/// sft workload --topology waxman:300:7 --count 60 --rate 2 --hold 5 \
///     --seed 3 --dests 4 --delay-budget 20 \
///   | sft serve --topology waxman:300:7 --servers 32 --link-latency 2
/// ```
///
/// Every session commits and is released again, so the stream drives
/// stage 1 (KMB on lazy rows, capacity repair), OPA, the delay repair's
/// λ ladder and the ledger. Its answers include `ok` lines carrying
/// `max_path_delay` (some of them on repaired routes) and
/// `delay_infeasible` refusals; all must match byte for byte.
#[test]
fn delay_budget_stream_is_byte_identical_to_its_anchor() {
    let stream = sft(
        "workload --topology waxman:300:7 --count 60 --rate 2 --hold 5 --seed 3 --dests 4 \
         --delay-budget 20",
        "",
    );
    let out = sft(
        "serve --topology waxman:300:7 --servers 32 --link-latency 2",
        &stream,
    );
    let got: Vec<&str> = out.lines().filter(|l| l.starts_with('{')).collect();
    let golden = std::fs::read_to_string(repo_path("tests/golden/waxman_delay_serve.jsonl"))
        .expect("golden anchor file");
    let want: Vec<&str> = golden.lines().collect();
    assert!(want.iter().any(|l| l.contains("\"max_path_delay\":")));
    assert!(want
        .iter()
        .any(|l| l.contains("\"code\":\"delay_infeasible\"")));
    assert_eq!(got.len(), want.len(), "line count drifted:\n{out}");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "line {i} drifted from the latency anchor");
    }
}

/// The answers `sft serve <flags> --listen` gives to `stream` when a
/// client keeps one request in flight: it sends each line (id defaulting
/// to the line number, as on stdin) only after reading the previous
/// answer. The server runs stdin's default mode, commit.
fn lockstep_socket_answers(flags: &str, stream: &str) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sft"))
        .args(flags.split_whitespace())
        .args(["--listen", "127.0.0.1:0", "--default-mode", "commit"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sft serve --listen");
    let mut banner = String::new();
    BufReader::new(child.stderr.take().expect("piped stderr"))
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim()
        .strip_prefix("sft serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"));
    let (reader, mut writer) = sft_service::connect(addr).unwrap();
    let mut reader = BufReader::new(reader);
    let mut roundtrip = |request: Request| {
        writeln!(writer, "{}", request.to_json()).unwrap();
        writer.flush().unwrap();
        let mut answer = String::new();
        reader.read_line(&mut answer).unwrap();
        answer.trim_end().to_string()
    };
    let answers = protocol::parse_stream(stream)
        .into_iter()
        .map(|(lineno, parsed)| {
            let request = parsed.expect("workload lines parse");
            roundtrip(request.with_default_id(Some(lineno as u64)))
        })
        .collect();
    let drained = roundtrip(Request::Shutdown {
        v: protocol::PROTOCOL_VERSION,
        id: None,
    });
    assert!(drained.contains("\"status\":\"draining\""), "{drained}");
    assert!(child.wait_with_output().unwrap().status.success());
    answers
}

/// Stdin `sft serve` and the socket answer through one request path: on
/// the latency anchor's stream and on a stream whose bandwidth demands
/// reach the widest link (where the socket's admission check refuses two
/// requests `insufficient_capacity`), a lockstep socket client gets the
/// stdin answers line for line.
#[test]
fn stdin_and_a_lockstep_socket_client_answer_alike() {
    for (workload, flags) in [
        (
            "workload --topology waxman:300:7 --count 60 --rate 2 --hold 5 --seed 3 --dests 4 \
             --delay-budget 20",
            "serve --topology waxman:300:7 --servers 32 --link-latency 2",
        ),
        (
            "workload --topology palmetto --count 400 --rate 10 --hold 20 --seed 5 --bandwidth 3",
            "serve --topology palmetto --capacity 1 --link-bw 3",
        ),
    ] {
        let stream = sft(workload, "");
        let out = sft(flags, &stream);
        let stdin: Vec<&str> = out.lines().filter(|l| l.starts_with('{')).collect();
        if flags.contains("--link-bw") {
            assert!(
                stdin
                    .iter()
                    .any(|l| l.contains("the widest residual link has")),
                "admission's bandwidth bound answers on stdin too"
            );
        }
        let socket = lockstep_socket_answers(flags, &stream);
        assert_eq!(stdin.len(), socket.len(), "{flags}");
        for (i, (s, t)) in stdin.iter().zip(&socket).enumerate() {
            assert_eq!(s, t, "{flags}: answer {i} differs");
        }
    }
}
