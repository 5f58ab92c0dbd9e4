//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! exp all                  # every experiment, Full profile
//! exp table6 fig9          # selected experiments
//! exp all --quick          # tiny graphs (CI / smoke test)
//! exp kernels --json       # kernel micro-benches -> BENCH_kernels.json
//! exp all --backend mmap   # force one I/O backend for every engine run
//! exp all --codec delta-varint  # force one on-disk codec likewise
//! ```

use pdtl_bench::experiments::{run_experiment, ALL_EXPERIMENTS};
use pdtl_bench::workbench::{Profile, Workbench};
use pdtl_bench::{kernelbench, servebench};
use pdtl_io::{Codec, IoBackend};

/// Where `exp kernels --json` writes its snapshot (the repo root when
/// run via `cargo run`).
const BENCH_JSON: &str = "BENCH_kernels.json";

/// Where `exp serve --json` writes the serve-mode throughput snapshot.
const SERVE_JSON: &str = "BENCH_serve.json";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--backend <b>` pins the default I/O backend for every engine run
    // in this process via the same env override the CI matrix uses
    // (consumed by `MgtOptions::default`). The dedicated kernel-bench
    // backend rows still measure all three explicitly.
    if let Some(i) = args.iter().position(|a| a == "--backend") {
        let Some(value) = args.get(i + 1) else {
            eprintln!("--backend needs a value (blocking|mmap|uring)");
            std::process::exit(2);
        };
        if IoBackend::parse(value).is_none() {
            eprintln!("bad --backend {value:?} (blocking|mmap|uring)");
            std::process::exit(2);
        }
        std::env::set_var(pdtl_io::BACKEND_ENV, value);
        args.drain(i..=i + 1);
    }
    // `--codec <c>` likewise pins the on-disk graph codec via the
    // PDTL_CODEC env override (consumed by `MgtOptions::default`). The
    // dedicated `mgt_disk/codec_*` rows still measure both explicitly.
    if let Some(i) = args.iter().position(|a| a == "--codec") {
        let Some(value) = args.get(i + 1) else {
            eprintln!("--codec needs a value (raw|delta-varint)");
            std::process::exit(2);
        };
        if Codec::parse(value).is_none() {
            eprintln!("bad --codec {value:?} (raw|delta-varint)");
            std::process::exit(2);
        }
        std::env::set_var(pdtl_io::CODEC_ENV, value);
        args.drain(i..=i + 1);
    }
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let json = args.iter().any(|a| a == "--json");
    let ids: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .cloned()
        .collect();
    if ids.is_empty() {
        eprintln!(
            "usage: exp <all | kernels | serve | id...> [--quick] [--json] [--backend b] [--codec c]"
        );
        eprintln!("experiment ids: {}", ALL_EXPERIMENTS.join(" "));
        std::process::exit(2);
    }

    if ids.iter().any(|i| i == "kernels") {
        // The SIMD feature level, resolved I/O backend, and resolved
        // codec go into the regeneration log so a BENCH_kernels.json
        // diff is attributable to the environment (a snapshot from an
        // SSE2-only runner is not comparable to an AVX2 one, and a
        // delta-varint default shifts every engine row).
        println!(
            "[simd: {} (host supports {})] [backend: {}] [codec: {}]",
            pdtl_core::intersect::simd_level(),
            pdtl_core::intersect::SimdLevel::detect(),
            IoBackend::default_from_env().resolve(),
            Codec::default_from_env(),
        );
        let start = std::time::Instant::now();
        let results = kernelbench::run_kernel_benches();
        print!("{}", kernelbench::to_table(&results));
        if json {
            kernelbench::write_json(BENCH_JSON, &results).expect("write bench json");
            println!("[wrote {BENCH_JSON}]");
        }
        println!("[kernels measured in {:.1?}]", start.elapsed());
        if ids.len() == 1 {
            return;
        }
    }

    if ids.iter().any(|i| i == "serve") {
        let start = std::time::Instant::now();
        let results = servebench::run_serve_bench();
        print!("{}", servebench::to_table(&results));
        if json {
            servebench::write_json(SERVE_JSON, &results).expect("write serve json");
            println!("[wrote {SERVE_JSON}]");
        }
        println!("[serve soaked in {:.1?}]", start.elapsed());
        if ids.iter().all(|i| i == "serve" || i == "kernels") {
            return;
        }
    }

    let profile = if quick { Profile::Quick } else { Profile::Full };
    let data_dir = std::path::Path::new("target").join("pdtl-data");
    let mut wb = Workbench::new(profile, data_dir);

    let selected: Vec<&str> = if ids.iter().any(|i| i == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        ids.iter()
            .map(|s| s.as_str())
            .filter(|&s| s != "kernels" && s != "serve")
            .collect()
    };

    println!(
        "PDTL experiment harness — profile: {:?} (modeled times use the paper's \
         500 MB/s SSD / 10 GbE cost model)",
        profile
    );
    for id in selected {
        let start = std::time::Instant::now();
        match run_experiment(id, &mut wb) {
            Some(out) => {
                print!("{out}");
                println!("[{id} regenerated in {:.1?}]", start.elapsed());
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                std::process::exit(2);
            }
        }
    }
}
