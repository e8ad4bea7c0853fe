//! `causumx-serve` — serve a generated dataset over HTTP.
//!
//! ```text
//! causumx-serve [--port N] [--addr HOST] [--dataset so|synthetic]
//!               [--rows N] [--seed N] [--threads N] [--cache N]
//!               [--deadline-ms N>0 (default 30000)]
//!               [--memory-budget-mb N>0] [--max-inflight N>0]
//!               [--max-queue N>0] [--allow-chaos]
//! ```
//!
//! Binds one [`causumx::Session`] over the chosen dataset and serves
//! `POST /query` (SQL in, report JSON out), `GET /healthz` and
//! `GET /stats` until killed. See `README.md` for a curl example.
//!
//! Exit status: 2 on a usage error (an unknown flag, a missing or invalid
//! value, a zero `--deadline-ms`, `--memory-budget-mb`, `--max-inflight`
//! or `--max-queue`, an unknown `--dataset`), 0 after `--help` prints the
//! usage line on stdout, and 1 when the address cannot be bound.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use causumx::{CausumxConfig, ConfigBuilder, Session};
use serve::handler::{Handler, ServeOptions};

const USAGE: &str = "usage: causumx-serve [--port N] [--addr HOST] \
                     [--dataset so|synthetic] [--rows N] [--seed N] \
                     [--threads N] [--cache N] \
                     [--deadline-ms N>0 (default 30000)] \
                     [--memory-budget-mb N>0] [--max-inflight N>0] \
                     [--max-queue N>0] [--allow-chaos]";

/// Parsed command line.
struct Args {
    addr: String,
    port: u16,
    dataset: String,
    rows: usize,
    seed: u64,
    config: CausumxConfig,
    opts: ServeOptions,
}

/// Parse the command line; `Ok(None)` when it asks for `--help`.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        addr: "127.0.0.1".into(),
        port: 7878,
        dataset: "so".into(),
        rows: 12_000,
        seed: 7,
        config: CausumxConfig::default(),
        opts: ServeOptions {
            default_deadline: Some(Duration::from_secs(30)),
            memory_budget_mb: None,
            max_inflight: 4,
            max_queued: 16,
            allow_chaos: false,
        },
    };
    let (mut threads, mut cache) = (0, 64);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--port" => {
                args.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--dataset" => {
                args.dataset = value("--dataset")?;
                if !matches!(args.dataset.as_str(), "so" | "synthetic") {
                    return Err(format!("unknown dataset `{}` (so|synthetic)", args.dataset));
                }
            }
            "--rows" => {
                args.rows = value("--rows")?
                    .parse()
                    .map_err(|e| format!("--rows: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--threads" => {
                threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--cache" => {
                cache = value("--cache")?
                    .parse()
                    .map_err(|e| format!("--cache: {e}"))?
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                if ms == 0 {
                    return Err("--deadline-ms must be positive (default 30000)".into());
                }
                args.opts.default_deadline = Some(Duration::from_millis(ms));
            }
            "--memory-budget-mb" => {
                let mb: u64 = value("--memory-budget-mb")?
                    .parse()
                    .map_err(|e| format!("--memory-budget-mb: {e}"))?;
                if mb == 0 {
                    return Err(
                        "--memory-budget-mb must be positive (omit it for unlimited)".into(),
                    );
                }
                args.opts.memory_budget_mb = Some(mb);
            }
            "--max-inflight" => args.opts.max_inflight = positive(&flag, value(&flag)?)?,
            "--max-queue" => args.opts.max_queued = positive(&flag, value(&flag)?)?,
            "--allow-chaos" => args.opts.allow_chaos = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    args.config = ConfigBuilder::new()
        .threads(threads)
        .prepared_statements(cache)
        .build()
        .map_err(|e| e.to_string())?;
    Ok(Some(args))
}

/// The value of `flag`, a count of at least 1: admission has no zero
/// capacity to offer.
fn positive(flag: &str, value: String) -> Result<usize, String> {
    match value.parse() {
        Ok(0) => Err(format!("{flag} must be positive")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("{flag}: {e}")),
    }
}

/// Generate the dataset `--dataset` names.
fn generate(args: &Args) -> datagen::Dataset {
    match args.dataset.as_str() {
        "so" => datagen::so::generate(args.rows, args.seed),
        "synthetic" => datagen::synthetic::generate(
            datagen::synthetic::SynthParams {
                n: args.rows,
                ..Default::default()
            },
            args.seed,
        ),
        other => unreachable!("parse_args admits only so|synthetic, got `{other}`"),
    }
}

fn main() -> ExitCode {
    // Both exit before any data is generated.
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("causumx-serve: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "causumx-serve: generating dataset `{}` ({} rows, seed {})…",
        args.dataset, args.rows, args.seed
    );
    let ds = generate(&args);
    let session = Session::new(ds.table, ds.dag, args.config);
    let schema: Vec<&str> = session
        .table()
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    eprintln!("causumx-serve: schema: {}", schema.join(", "));
    let handler = Arc::new(Handler::new(Arc::new(session), args.opts.clone()));
    let bind = format!("{}:{}", args.addr, args.port);
    let server = match serve::server::spawn(handler, &bind) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("causumx-serve: failed to bind {bind}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Plain line on stdout so scripts can scrape the address.
    println!("listening on http://{}", server.addr);
    // Serve until killed: the accept loop owns its thread; park forever.
    loop {
        std::thread::park();
    }
}
