//! The systems gates: eight timing comparisons of the serving stack (see
//! `laf_bench::gates`). Prints the record, writes `BENCH_gates.json`, and
//! exits with code 1 when any gate misses its bound.

fn main() {
    let cfg = laf_bench::HarnessConfig::from_env();
    let report = laf_bench::gates::run(&cfg);
    let failed: Vec<&str> = report
        .gates
        .iter()
        .filter(|g| !g.pass)
        .map(|g| g.name)
        .collect();
    if !failed.is_empty() {
        eprintln!("failed gates: {}", failed.join(", "));
        std::process::exit(1);
    }
}
