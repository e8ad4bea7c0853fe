//! Dataset dump tool: write any of the stand-in datasets to CSV so they
//! can be inspected or consumed by external tools.
//!
//! ```sh
//! cargo run -p datagen --bin gen --release -- so 10000 42 /tmp/so.csv
//! ```
//!
//! A bad argument exits with status 2 and the usage line; an output path
//! that cannot be written exits with status 1 and names the path.

const USAGE: &str =
    "usage: gen <german|adult|so|impus|accidents|synthetic> <rows> <seed> <out.csv>";

/// Print what is wrong and the usage line, then exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}; {USAGE}");
    std::process::exit(2)
}

/// Parse a non-negative integer argument or exit through [`usage_error`].
fn number<T: std::str::FromStr>(what: &str, text: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        usage_error(&format!(
            "{what} must be a non-negative integer, got `{text}`"
        ))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 5 {
        usage_error(&format!("expected 4 arguments, got {}", args.len() - 1));
    }
    let name = args[1].as_str();
    let n: usize = number("rows", &args[2]);
    let seed: u64 = number("seed", &args[3]);
    let out = &args[4];

    let ds = match name {
        "german" => datagen::german::generate(n, seed),
        "adult" => datagen::adult::generate(n, seed),
        "so" => datagen::so::generate(n, seed),
        "impus" => datagen::impus::generate(n, seed),
        "accidents" => datagen::accidents::generate(n, seed),
        "synthetic" => datagen::synthetic::generate(
            datagen::synthetic::SynthParams {
                n,
                ..Default::default()
            },
            seed,
        ),
        other => usage_error(&format!("unknown dataset `{other}`")),
    };
    if let Err(e) = std::fs::write(out, table::csv::to_csv(&ds.table)) {
        eprintln!("gen: cannot write {out}: {e}");
        std::process::exit(1)
    }
    eprintln!(
        "wrote {} rows × {} attrs to {out} (group-by {:?}, outcome {})",
        ds.table.nrows(),
        ds.table.ncols(),
        ds.group_by
            .iter()
            .map(|&a| ds.table.schema().field(a).name.clone())
            .collect::<Vec<_>>(),
        ds.outcome_name()
    );
    // Also print the ground-truth DAG in DOT for graphviz users.
    println!("digraph causal {{");
    for (a, b) in ds.dag.edges() {
        println!("  \"{}\" -> \"{}\";", ds.dag.name(a), ds.dag.name(b));
    }
    println!("}}");
}
