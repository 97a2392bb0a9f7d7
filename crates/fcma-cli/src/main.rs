//! `fcma` — command-line interface to the FCMA pipeline.
//!
//! ```sh
//! fcma generate --preset face-scene --voxels 512 --out ds
//! fcma info     --data ds
//! fcma analyze  --data ds --top-k 16 --out scores.tsv
//! fcma analyze  --data ds --workers 4 --retries 3 --checkpoint sweep.ckpt
//! fcma analyze  --data ds --workers 4 --checkpoint sweep.ckpt --resume
//! fcma analyze  --data ds --workers 4 --trace-out trace.json
//! fcma report   trace.json --check
//! fcma offline  --data ds --top-k 16
//! fcma clusters --scores scores.tsv --top-k 16
//! fcma mask     --data ds --threshold 0.05 --out ds_masked
//! ```

mod args;
mod commands;
mod cpu;

use args::Args;

fn main() {
    // Before anything else: past this line the code may use any
    // instruction the build level allows.
    if let Err(e) = cpu::check() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            let _ = commands::print_help();
            std::process::exit(2);
        }
    };
    let result = match args.command.as_str() {
        _ if args.has_flag("help") || args.command == "help" => commands::print_help(),
        "generate" => commands::generate(&args),
        "info" => commands::info(&args),
        "analyze" => commands::analyze(&args),
        "report" => commands::report(&args),
        "offline" => commands::offline(&args),
        "clusters" => commands::clusters(&args),
        "mask" => commands::mask(&args),
        other => {
            eprintln!("error: unknown command {other:?}");
            let _ = commands::print_help();
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        // The reader of standard output is done (`fcma info | head -1`).
        if e.is::<commands::StdoutClosed>() {
            return;
        }
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
