//! Appends the one-line JSON records on standard input to a `BENCH_*.json`
//! trajectory file through [`vllm_bench::append_trajectory`], so scripts
//! (`scripts/ab.sh`) tag and write their records the way the bench bins do.
//!
//! `trajectory BENCH_e2e.json < records`

fn main() {
    let file = std::env::args()
        .nth(1)
        .expect("usage: trajectory <BENCH_file.json> < records");
    let records: Vec<String> = std::io::stdin()
        .lines()
        .map(|line| line.expect("standard input is text"))
        .filter(|line| !line.trim().is_empty())
        .collect();
    for line in vllm_bench::append_trajectory(&file, &records) {
        println!("{line}");
    }
}
