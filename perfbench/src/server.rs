//! `server`: `lemra-server` with two workers and its default config,
//! driven closed-loop over two connections. Every 4th request on a
//! connection opens a new connection first, as a per-file CLI client
//! would; requests are 128-variable `allocate` payloads drawn Zipf-popular
//! from a seeded pool four times the size of the server's default
//! 128-entry allocation cache.

use crate::alloc::{network_work, report_work, LayerTimes, Work};
use crate::{secs, Args, Outcome, MAX_WALL};
use lemra_core::{allocate, AllocationReport};
use lemra_ir::format_block_spec;
use lemra_perfbench::rng::{SplitMix64, Zipf};
use lemra_perfbench::{rss, stats};
use lemra_server::wire::{format_allocate_payload, format_allocation, parse_allocate_payload};
use lemra_server::wire::{RequestKind, Status};
use lemra_server::Client;
use lemra_workloads::random::{random_lifetimes, RandomConfig};
use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const VARS: usize = 128;
const REGISTERS: u32 = 16;
const WORKERS: usize = 2;
const CONNS: usize = 2;
const RECONNECT_EVERY: usize = 4;
const POOL: usize = 512;
const ZIPF_S: f64 = 1.0;
/// Payloads behind `energy_rel`, the same for every `--seed`.
const FIXED_SEEDS: [u64; 4] = [101, 202, 303, 404];
const WARMUP_REQUESTS: u64 = 4;
const SETUP_REPEATS: usize = 3;
/// Requests whose in-process pipeline is traced for the offline and
/// per-layer figures.
const OFFLINE_SAMPLES: usize = 64;

/// One pool entry: the request bytes and the response the offline
/// pipeline gives for them.
struct Case {
    payload: Vec<u8>,
    expected: String,
}

fn case(seed: u64) -> Case {
    let table = random_lifetimes(&RandomConfig::scaled(VARS, seed));
    let payload = format_allocate_payload(&format_block_spec(&table, &[]), REGISTERS, None);
    let expected = offline(&payload).expect("generated payloads are well-formed");
    Case { payload, expected }
}

/// What the server computes for `payload`, in process: parse, allocate,
/// report, format.
fn offline(payload: &[u8]) -> Result<String, String> {
    let request = parse_allocate_payload(payload).map_err(|e| e.to_string())?;
    let allocation = allocate(&request.problem).map_err(|e| e.to_string())?;
    let report = AllocationReport::new(&request.problem, &allocation);
    Ok(format_allocation(&request, &allocation, &report))
}

/// A running server; dropping it stops the process and waits for it.
struct ServerProcess {
    child: Child,
    stderr: BufReader<ChildStderr>,
    addr: String,
    admin: String,
}

impl ServerProcess {
    fn spawn(bin: &Path) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--listen", "127.0.0.1:0", "--admin", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        // Default configuration: no solver or server setting leaks in.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("LEMRA_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut process = ServerProcess {
            child,
            stderr: BufReader::new(stderr),
            addr: String::new(),
            admin: String::new(),
        };
        let mut line = String::new();
        process
            .stderr
            .read_line(&mut line)
            .map_err(|e| format!("server stderr: {e}"))?;
        let parsed = line
            .split_once("listening on ")
            .and_then(|(_, rest)| rest.split_once(" (admin "))
            .and_then(|(addr, rest)| Some((addr, rest.split_once(')')?.0)));
        let (addr, admin) = parsed.ok_or_else(|| format!("unexpected server banner `{line}`"))?;
        process.addr = addr.to_owned();
        process.admin = admin.to_owned();
        Ok(process)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The admin endpoint's `STAT` counters.
    fn stats(&self) -> Result<BTreeMap<String, u64>, String> {
        let io = |e: std::io::Error| format!("admin {}: {e}", self.admin);
        let mut stream = TcpStream::connect(&self.admin).map_err(io)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(io)?;
        stream.write_all(b"stats\n").map_err(io)?;
        let mut stats = BTreeMap::new();
        for line in BufReader::new(stream).lines() {
            let line = line.map_err(io)?;
            if line == "END" {
                return Ok(stats);
            }
            let mut words = line.split_whitespace();
            if let (Some("STAT"), Some(name), Some(value)) =
                (words.next(), words.next(), words.next())
            {
                if let Ok(v) = value.parse() {
                    stats.insert(name.to_owned(), v);
                }
            }
        }
        Err("admin reply ended without END".into())
    }

    /// SIGTERM, then waits for the drain; returns the rest of stderr.
    fn terminate(mut self) -> Result<String, String> {
        let pid = self.pid().to_string();
        let sent = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .map_err(|e| format!("kill: {e}"))?;
        if !sent.success() {
            return Err(format!("kill -TERM {pid} failed"));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() > deadline => return Err("server did not drain".into()),
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        let mut rest = String::new();
        for line in (&mut self.stderr).lines() {
            rest.push_str(&line.map_err(|e| e.to_string())?);
            rest.push('\n');
        }
        if !status.success() {
            return Err(format!("server exited with {status}: {rest}"));
        }
        Ok(rest)
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Sends `case` on a fresh connection and checks the reply bytes.
fn request_once(addr: &str, case: &Case) -> Result<String, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let response = client
        .request_with_id(RequestKind::Allocate, 1, &case.payload)
        .map_err(|e| format!("request: {e}"))?;
    if response.status != Status::Ok || response.payload != case.expected {
        return Err(format!(
            "response differs from offline: {}",
            response.status
        ));
    }
    Ok(response.payload)
}

/// Spawns a server and warms it up; the set-up span ends when the warm-up
/// requests are answered.
fn set_up(bin: &Path, warmup: &[Case]) -> Result<(ServerProcess, f64), String> {
    let t = Instant::now();
    let server = ServerProcess::spawn(bin)?;
    for case in warmup {
        request_once(&server.addr, case)?;
    }
    Ok((server, secs(t)))
}

/// One connection's closed loop.
#[derive(Default)]
struct ConnLog {
    latency_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    rtt_ms: Vec<f64>,
    drawn: Vec<usize>,
    /// One entry per failed request.
    errors: Vec<String>,
}

/// How long the connections keep going: until `stop` and until `min_ops`
/// requests (`ids` counts them) have been sent, within [`MAX_WALL`].
struct Until {
    stop: Instant,
    give_up: Instant,
    min_ops: u64,
}

impl Until {
    fn more(&self, sent: u64) -> bool {
        let now = Instant::now();
        (now < self.stop || sent < self.min_ops) && now < self.give_up
    }
}

fn drive(
    addr: &str,
    pool: &[Case],
    zipf: &Zipf,
    seed: u64,
    until: &Until,
    ids: &AtomicU64,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut rng = SplitMix64::new(seed);
    let mut client = None;
    let mut n = 0usize;
    while until.more(ids.load(Ordering::Relaxed) - 1) {
        let idx = zipf.sample(&mut rng);
        let case = &pool[idx];
        let id = ids.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        if client.is_none() || n > 0 && n.is_multiple_of(RECONNECT_EVERY) {
            let tc = Instant::now();
            match Client::connect(addr) {
                Ok(c) => client = Some(c),
                Err(e) => {
                    client = None;
                    log.errors.push(format!("request {id}: connect: {e}"));
                    log.latency_ms.push(f64::INFINITY);
                    n += 1;
                    continue;
                }
            }
            if n > 0 {
                log.connect_ms.push(secs(tc) * 1e3);
            }
        }
        let conn = client.as_mut().expect("connected above");
        let tr = Instant::now();
        let response = conn.request_with_id(RequestKind::Allocate, id, &case.payload);
        let rtt = secs(tr) * 1e3;
        let latency = secs(t) * 1e3;
        n += 1;
        log.drawn.push(idx);
        match response {
            Ok(r) if r.status == Status::Ok && r.payload == case.expected => {
                log.latency_ms.push(latency);
                log.rtt_ms.push(rtt);
            }
            Ok(r) => {
                log.latency_ms.push(f64::INFINITY);
                log.errors.push(format!(
                    "request {id}: {} response differs from offline bytes",
                    r.status
                ));
            }
            Err(e) => {
                client = None;
                log.latency_ms.push(f64::INFINITY);
                log.errors.push(format!("request {id}: {e}"));
            }
        }
    }
    log
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    out.info("vars", VARS);
    out.info("registers", REGISTERS);
    out.info("pool", POOL);
    out.info("zipf_s", ZIPF_S);
    out.info("conns", CONNS);
    out.info("reconnect_every", RECONNECT_EVERY);
    out.info("server_workers", WORKERS);
    let Some(bin) = args.server_bin.as_deref() else {
        out.error("the server workload needs --server-bin".into());
        return out;
    };

    // Inputs: the pool, warm-up payloads and the fixed energy set, with
    // their offline responses.
    let mut rng = SplitMix64::new(args.seed);
    let pool_seeds: Vec<u64> = (0..POOL).map(|_| rng.next_u64()).collect();
    let pool: Vec<Case> = pool_seeds.iter().map(|&s| case(s)).collect();
    let warmup: Vec<Case> = (0..WARMUP_REQUESTS).map(|_| case(rng.next_u64())).collect();
    let fixed: Vec<Case> = FIXED_SEEDS.iter().map(|&s| case(s)).collect();
    let zipf = Zipf::new(POOL, ZIPF_S);

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        // Only the last server stays up; the others are stopped on drop.
        match set_up(bin, &warmup) {
            Ok((s, t)) => {
                setups.push(t);
                server = Some(s);
            }
            Err(e) => {
                out.error(format!("server set-up: {e}"));
                return out;
            }
        }
    }
    let server = server.expect("set up at least once");

    // energy_rel over the fixed payloads, as the server answers them.
    let (mut energy, mut all_memory) = (0.0, 0.0);
    for (case, seed) in fixed.iter().zip(FIXED_SEEDS) {
        let result = request_once(&server.addr, case).and_then(|reply| {
            let e = reply
                .lines()
                .find_map(|l| l.strip_prefix("energy static="))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
                .ok_or("reply has no static energy")?;
            let request = parse_allocate_payload(&case.payload).map_err(|e| e.to_string())?;
            let base = lemra_baselines::all_memory(&request.problem).map_err(|e| e.to_string())?;
            energy += e;
            all_memory += AllocationReport::new(&request.problem, &base).static_energy;
            Ok(())
        });
        if let Err(e) = result {
            out.error(format!("fixed payload {seed}: {e}"));
        }
    }

    let before = server.stats();
    let rss_before = rss::current_kb(Some(server.pid())).unwrap_or(0);
    let ids = AtomicU64::new(1);
    let start = Instant::now();
    let until = Until {
        stop: start + Duration::from_secs_f64(args.seconds),
        give_up: start + MAX_WALL,
        min_ops: out.min_ops(99) as u64,
    };
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let (addr, pool, zipf, ids, until) = (&server.addr, &pool, &zipf, &ids, &until);
                let seed = args.seed ^ (0xC0FF_EE00 + c as u64);
                scope.spawn(move || drive(addr, pool, zipf, seed, until, ids))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall = secs(start);
    let rss_after = rss::current_kb(Some(server.pid())).unwrap_or(0);
    let peak_kb = rss::peak_kb(Some(server.pid())).unwrap_or(0);
    let after = server.stats();

    let mut latencies = Vec::new();
    let (mut connect, mut rtt, mut drawn) = (Vec::new(), Vec::new(), Vec::new());
    for log in logs {
        out.attempted += log.latency_ms.len() as u64;
        for e in log.errors {
            out.fail_op(e);
        }
        latencies.extend(log.latency_ms);
        connect.extend(log.connect_ms);
        rtt.extend(log.rtt_ms);
        drawn.extend(log.drawn);
    }
    let completed = latencies.iter().filter(|l| l.is_finite()).count();

    let (before, after) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            out.error(format!("STAT: {e}"));
            return out;
        }
    };
    let stat = |name: &str| after.get(name).copied().unwrap_or(0);
    let delta = |name: &str| stat(name).saturating_sub(before.get(name).copied().unwrap_or(0));
    for name in ["incidents", "internal_errors"] {
        if stat(name) != 0 {
            out.error(format!("server STAT {name} = {}", stat(name)));
        }
    }
    match server.terminate() {
        Ok(tail) if tail.contains("drained, exiting") => {}
        Ok(tail) => out.error(format!("server did not report a clean drain: {tail}")),
        Err(e) => out.error(format!("server shutdown: {e}")),
    }

    let distinct: HashSet<_> = drawn.iter().collect();
    let repeat_share = 1.0 - distinct.len() as f64 / drawn.len().max(1) as f64;
    out.info("requests", drawn.len());
    out.info("reconnects", connect.len());
    out.info("repeat_share", format!("{repeat_share:.3}"));
    out.end_to_end(
        stats::median(&setups),
        completed as f64 / wall,
        &latencies,
        peak_kb as f64,
        energy / all_memory,
    );
    if args.trace {
        // The same payloads through the server's pipeline in process.
        let mut offline_ms = Vec::new();
        let mut layers = LayerTimes::default();
        for &idx in drawn.iter().take(OFFLINE_SAMPLES) {
            let payload = &pool[idx].payload;
            let t = Instant::now();
            let reply = offline(payload);
            offline_ms.push(secs(t) * 1e3);
            let traced = parse_allocate_payload(payload)
                .map_err(|e| e.to_string())
                .and_then(|r| {
                    let t = Instant::now();
                    let a = allocate(&r.problem).map_err(|e| e.to_string())?;
                    let ms = secs(t) * 1e3;
                    layers.trace(&r.problem, &a, ms)
                });
            if let Err(e) = reply.and(traced) {
                out.error(format!("offline pipeline: {e}"));
            }
        }
        layers.report(&mut out);
        let mut work = Work::default();
        for case in &fixed {
            let counted = parse_allocate_payload(&case.payload)
                .map_err(|e| e.to_string())
                .and_then(|r| {
                    let (w, _, _) = network_work(&r.problem)?;
                    let (again, _, _) = network_work(&r.problem)?;
                    if w != again {
                        return Err(format!("deterministic counts differ: {w:?} then {again:?}"));
                    }
                    work += w;
                    Ok(())
                });
            if let Err(e) = counted {
                out.error(format!("fixed payload: {e}"));
            }
        }
        report_work(&mut out, work);
        let med = stats::median;
        let (rtt_ms, offline) = (med(&rtt), med(&offline_ms));
        out.metric("server.connect_ms", med(&connect), "ms");
        out.metric("server.rtt_ms", rtt_ms, "ms");
        out.metric("server.offline_ms", offline, "ms");
        out.metric("server.transport_ms", rtt_ms - offline, "ms");
        out.metric(
            "server.stat_p50_ms",
            stat("latency_p50_us") as f64 / 1e3,
            "ms",
        );
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        out.percentile("server.latency_p99_ms", &sorted, 99);
        let conns = delta("conns_opened");
        out.metric(
            "server.rss_per_conn_kb",
            (rss_after as f64 - rss_before as f64) / conns.max(1) as f64,
            "KiB",
        );
        out.metric("server.repeat_share", repeat_share, "ratio");
        out.metric("server.shed", delta("shed") as f64, "count");
        out.metric("server.incidents", delta("incidents") as f64, "count");
        out.metric(
            "server.worker_respawns",
            delta("worker_respawns") as f64,
            "count",
        );
        out.metric("server.conns_opened", conns as f64, "count");
        out.metric(
            "server.cache_exact_hits",
            delta("cache_exact_hits") as f64,
            "count",
        );
    }
    out
}
