//! CLI subcommand implementations.

// An input boundary: product code here returns typed errors (DESIGN.md §10).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable
)]

use crate::args::Args;
use fcma_cluster::{run_cluster_with, ChaosExecutor, ClusterConfig};
use fcma_core::{
    offline_analysis, recovery_rate, score_all_voxels, select_top_k, AnalysisConfig,
    OptimizedExecutor, TaskContext, TaskExecutor, VoxelScore,
};
use fcma_fmri::geometry::{extract_clusters, Grid3};
use fcma_fmri::mask::VoxelMask;
use fcma_fmri::{io as fio, presets, Dataset, Placement};
use fcma_sync::pool::Pool;
use fcma_trace::export::{from_chrome_json, to_chrome_json};
use fcma_trace::{event, Collector};
use std::error::Error;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// A command's report could not be written because the reader of
/// standard output has closed it (`fcma info | head -1`). The reader has
/// read all it wants: the command stops writing, and `main` exits 0
/// without a message.
#[derive(Debug)]
pub(crate) struct StdoutClosed;

impl std::fmt::Display for StdoutClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("standard output was closed")
    }
}

impl Error for StdoutClosed {}

/// Write `text` to standard output; a closed pipe is [`StdoutClosed`],
/// not the panic of `print!`.
fn to_stdout(text: std::fmt::Arguments<'_>) -> Result<()> {
    match std::io::stdout().lock().write_fmt(text) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Err(Box::new(StdoutClosed)),
        written => Ok(written?),
    }
}

/// `println!` through [`to_stdout`]: evaluates to its `Result`.
macro_rules! say {
    ($($arg:tt)*) => {
        to_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The command reference.
const HELP: &str = "fcma — full correlation matrix analysis\n\n\
         commands:\n\
         \u{20} generate  synthesize a dataset      --preset tiny|face-scene|attention\n\
         \u{20}                                     --voxels N --subjects S --coupling X\n\
         \u{20}                                     --placement random|blobs --seed N --out STEM\n\
         \u{20} info      describe a dataset        --data STEM\n\
         \u{20} analyze   score every voxel         --data STEM --task-size N --top-k K\n\
         \u{20}                                     [--out scores.tsv]\n\
         \u{20}                                     [--threads N] tasks run at once; on the\n\
         \u{20}                                     cluster, kernel threads per worker\n\
         \u{20}                                     (default: $FCMA_THREADS or 1)\n\
         \u{20}                                     [--truth STEM.truth]\n\
         \u{20}                                     [--workers N] run on the fault-tolerant\n\
         \u{20}                                     threaded cluster driver, with\n\
         \u{20}                                     [--retries N] [--task-deadline-ms MS]\n\
         \u{20}                                     [--checkpoint FILE] [--resume]\n\
         \u{20}                                     [--trace-out trace.json] Chrome trace\n\
         \u{20}                                     [--postmortem DIR] flight-recorder dumps\n\
         \u{20}                                     [--chaos-panic-task N] inject one panic on\n\
         \u{20}                                     the task starting at voxel N (fault drill)\n\
         \u{20} report    summarize a trace file    fcma report trace.json [--check]\n\
         \u{20} offline   nested LOSO analysis      --data STEM --top-k K [--task-size N]\n\
         \u{20}                                     [--threads N] tasks run at once\n\
         \u{20} clusters  ROI cluster extraction    --scores scores.tsv --top-k K [--grid X,Y,Z]\n\
         \u{20} mask      threshold-mask a dataset  --data STEM --threshold T --out STEM2\n\
         \u{20} help      this text";

/// Print the command reference.
pub(crate) fn print_help() -> Result<()> {
    say!("{HELP}")
}

fn stem(args: &Args, key: &str) -> Result<PathBuf> {
    Ok(PathBuf::from(args.get(key).ok_or(format!("--{key} is required"))?))
}

/// `fcma generate`
pub(crate) fn generate(args: &Args) -> Result<()> {
    let preset = args.get_or("preset", "tiny");
    let mut cfg = match preset.as_str() {
        "tiny" => presets::tiny(),
        "face-scene" => presets::face_scene_scaled(512),
        "attention" => presets::attention_scaled(512),
        other => return Err(format!("unknown preset {other:?}").into()),
    };
    if args.get("voxels").is_some() {
        cfg.n_voxels = args.get_parsed("voxels", cfg.n_voxels, "integer")?;
        cfg.n_informative = (cfg.n_voxels / 16).max(4) & !1;
        if cfg.n_voxels < cfg.n_informative {
            return Err(format!("--voxels must be at least {}", cfg.n_informative).into());
        }
    }
    cfg.n_subjects = args.get_parsed("subjects", cfg.n_subjects, "integer")?;
    if cfg.n_subjects == 0 {
        return Err("--subjects must be at least 1".into());
    }
    cfg.coupling = args.get_finite("coupling", cfg.coupling)?;
    cfg.seed = args.get_parsed("seed", cfg.seed, "integer")?;
    match args.get_or("placement", "random").as_str() {
        "random" => cfg.placement = Placement::Random,
        "blobs" => cfg.placement = Placement::SphericalBlobs,
        other => return Err(format!("unknown placement {other:?}").into()),
    }
    let out = stem(args, "out")?;
    let (dataset, truth) = cfg.generate();
    fio::save_dataset(&out, &dataset)?;
    // Ground truth sidecar: one informative voxel index per line.
    let mut f = std::fs::File::create(out.with_extension("truth"))?;
    for v in &truth.informative {
        writeln!(f, "{v}")?;
    }
    say!(
        "wrote {} ({} voxels, {} subjects, {} epochs) + .epochs + .truth ({} planted voxels)",
        out.with_extension("fcma").display(),
        dataset.n_voxels(),
        dataset.n_subjects(),
        dataset.n_epochs(),
        truth.informative.len()
    )?;
    Ok(())
}

/// `fcma info`
pub(crate) fn info(args: &Args) -> Result<()> {
    let data = stem(args, "data")?;
    let dataset = fio::load_dataset(&data)?;
    say!("dataset    {}", data.display())?;
    say!("voxels     {}", dataset.n_voxels())?;
    say!("timepoints {}", dataset.n_timepoints())?;
    say!("subjects   {}", dataset.n_subjects())?;
    say!("epochs     {}", dataset.n_epochs())?;
    let a = dataset.epochs().iter().filter(|e| e.label == fcma_fmri::Condition::A).count();
    say!("labels     {a} A / {} B", dataset.n_epochs() - a)?;
    let lens = dataset.epochs().iter().map(|e| e.len);
    let (Some(min), Some(max)) = (lens.clone().min(), lens.max()) else {
        return Err(format!("{}: the dataset has no epochs", data.display()).into());
    };
    say!("epoch len  {min}..{max}")?;
    Ok(())
}

/// Kernel threads for the executors' pool: `--threads` if given, else
/// the `FCMA_THREADS` environment variable, else 1. The one reader of
/// that variable.
fn threads_of(args: &Args) -> Result<usize> {
    threads_from(args, std::env::var("FCMA_THREADS").ok().as_deref())
}

/// [`threads_of`] with the variable's value passed in: it obeys the
/// option's rules, a whole number of at least 1.
fn threads_from(args: &Args, env: Option<&str>) -> Result<usize> {
    let (source, n) = match (args.get("threads"), env) {
        (None, Some(v)) => (
            "FCMA_THREADS",
            v.parse().map_err(|_| format!("FCMA_THREADS: {v:?} is not a valid integer"))?,
        ),
        _ => ("--threads", args.get_parsed("threads", 1usize, "integer")?),
    };
    if n == 0 {
        return Err(format!("{source} must be at least 1").into());
    }
    Ok(n)
}

/// Voxels per task: `--task-size` if given, else 64.
fn task_size_of(args: &Args) -> Result<usize> {
    match args.get_parsed("task-size", 64usize, "integer")? {
        0 => Err("--task-size must be at least 1".into()),
        n => Ok(n),
    }
}

/// Voxels to select: `--top-k` if given, else 16.
fn top_k_of(args: &Args) -> Result<usize> {
    match args.get_parsed("top-k", 16usize, "integer")? {
        0 => Err("--top-k must be at least 1".into()),
        k => Ok(k),
    }
}

/// Refuse a dataset with fewer than `min` subjects, the least `command`'s
/// leave-one-subject-out cross validation runs on.
fn require_subjects(dataset: &Dataset, min: usize, command: &str) -> Result<()> {
    let n = dataset.n_subjects();
    if n >= min {
        return Ok(());
    }
    Err(format!("{command} needs at least {min} subjects to cross-validate; the dataset has {n}")
        .into())
}

/// The `analyze` options only the cluster driver honours.
const CLUSTER_ONLY: [&str; 6] =
    ["chaos-panic-task", "checkpoint", "resume", "retries", "task-deadline-ms", "postmortem"];

/// Build the cluster driver config from the analyze flags. Without
/// `--workers`, an option only the driver honours is an error, not a
/// silent no-op.
fn cluster_config_of(args: &Args, task_size: usize) -> Result<ClusterConfig> {
    let n_workers = args.get_parsed("workers", 0usize, "integer")?;
    if n_workers == 0 {
        if let Some(option) =
            CLUSTER_ONLY.iter().find(|&&o| args.get(o).is_some() || args.has_flag(o))
        {
            return Err(format!("--{option} needs --workers N (the cluster driver)").into());
        }
    }
    let checkpoint = args.get("checkpoint").map(PathBuf::from);
    let resume_from = if args.has_flag("resume") {
        let path = checkpoint
            .clone()
            .ok_or("--resume needs --checkpoint FILE to know what to resume from")?;
        if path.exists() {
            Some(path)
        } else {
            eprintln!(
                "warning: --resume requested but checkpoint {} does not exist; starting fresh",
                path.display()
            );
            event!("cluster.resume_missing", path = path.display().to_string());
            None
        }
    } else {
        None
    };
    Ok(ClusterConfig {
        n_workers,
        task_size,
        kernel_threads: threads_of(args)?,
        retry_budget: args.get_parsed("retries", 2usize, "integer")?,
        task_deadline: {
            let ms = args.get_parsed("task-deadline-ms", 0u64, "integer")?;
            (ms > 0).then(|| std::time::Duration::from_millis(ms))
        },
        checkpoint,
        resume_from,
        postmortem_dir: args.get("postmortem").map(PathBuf::from),
        ..Default::default()
    })
}

/// `fcma analyze`
pub(crate) fn analyze(args: &Args) -> Result<()> {
    let data = stem(args, "data")?;
    let dataset = fio::load_dataset(&data)?;
    require_subjects(&dataset, 2, "analyze")?;
    let truth = args.get("truth").map(|path| read_truth(path, dataset.n_voxels())).transpose()?;
    let pool = Pool::new(threads_of(args)?);
    let mut exec: Arc<dyn TaskExecutor> =
        Arc::new(OptimizedExecutor { pool, ..Default::default() });
    let chaos_start = args
        .get("chaos-panic-task")
        .map(|_| args.get_parsed("chaos-panic-task", 0usize, "integer"))
        .transpose()?;
    let task_size = task_size_of(args)?;
    let top_k = top_k_of(args)?;
    let trace_out = args.get("trace-out").map(PathBuf::from);
    // Install the collector before the config is built so the
    // `cluster.resume_missing` event (emitted while resolving --resume)
    // lands in the trace.
    let collector = trace_out.is_some().then(Collector::new);
    let scoped = collector.as_ref().map(Collector::install_scoped);
    let cluster_cfg = cluster_config_of(args, task_size)?;
    if let Some(start) = chaos_start {
        // Fault drill: one injected panic exercises the whole recovery
        // and observability path (requeue, postmortem, causal trace).
        exec = Arc::new(ChaosExecutor::panic_once(exec, start));
        eprintln!("chaos: will panic once on the task starting at voxel {start}");
    }

    let ctx = TaskContext::full(&dataset);
    // The sweep reads only the normalized epochs; the raw matrix is as
    // large again.
    drop(dataset);
    let t0 = std::time::Instant::now();
    let scores = if cluster_cfg.n_workers > 0 {
        let run = run_cluster_with(&ctx, Arc::clone(&exec), &cluster_cfg)?;
        eprintln!(
            "cluster run: {} workers, tasks/worker {:?}, {} requeued, {} worker(s) lost, \
             {} voxels resumed from checkpoint",
            cluster_cfg.n_workers,
            run.tasks_per_worker,
            run.requeued_tasks,
            run.failed_workers.len() + run.hung_workers.len(),
            run.resumed_voxels
        );
        run.scores
    } else {
        score_all_voxels(&ctx, exec.as_ref(), task_size, None)
    };
    eprintln!(
        "scored {} voxels with the {} executor in {:.2?}",
        scores.len(),
        exec.name(),
        t0.elapsed()
    );

    if let (Some(scoped), Some(path)) = (&scoped, &trace_out) {
        std::fs::write(path, to_chrome_json(&scoped.drain()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote trace {}", path.display());
    }

    if let Some(out) = args.get("out") {
        write_scores(Path::new(out), &scores).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    let selected = select_top_k(&scores, top_k);
    say!("voxel\taccuracy")?;
    for &v in &selected {
        let score = scores.get(v).ok_or_else(|| format!("no score for voxel {v}"))?;
        say!("{v}\t{:.4}", score.accuracy)?;
    }
    if let Some(truth) = truth {
        let rec = recovery_rate(&selected, &truth);
        eprintln!("recovery of planted network: {:.0}%", rec * 100.0);
    }
    Ok(())
}

/// `fcma report` — summarize a Chrome trace written by `analyze --trace-out`.
pub(crate) fn report(args: &Args) -> Result<()> {
    let path = args.positional(0).ok_or("report needs a trace file: `fcma report trace.json`")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report = from_chrome_json(&text).map_err(|e| format!("{path}: {e}"))?;
    // A reader that stops early does not cancel the `--check` verdict.
    let printed = to_stdout(format_args!("{}", report.summary_table()));
    let mut violations = report.check_consistency();
    violations.extend(report.check_names());
    if violations.is_empty() {
        if args.has_flag("check") {
            eprintln!("consistency: ok");
        }
    } else {
        for v in &violations {
            eprintln!("consistency violation: {v}");
        }
        if args.has_flag("check") {
            return Err(format!("{} consistency violation(s)", violations.len()).into());
        }
    }
    printed
}

/// `fcma offline`
pub(crate) fn offline(args: &Args) -> Result<()> {
    let data = stem(args, "data")?;
    let dataset = fio::load_dataset(&data)?;
    require_subjects(&dataset, 3, "offline")?;
    let exec = OptimizedExecutor { pool: Pool::new(threads_of(args)?), ..Default::default() };
    let cfg = AnalysisConfig { task_size: task_size_of(args)?, top_k: top_k_of(args)? };
    let t0 = std::time::Instant::now();
    let r = offline_analysis(&dataset, &exec, &cfg);
    say!("fold\theld-out\ttest-accuracy")?;
    for f in &r.folds {
        say!("{}\t{}\t{:.4}", f.held_out, f.held_out, f.test_accuracy)?;
    }
    say!("mean test accuracy\t{:.4}", r.mean_test_accuracy)?;
    say!("stable ROI ({} voxels)\t{:?}", r.stable.len(), r.stable)?;
    eprintln!("nested LOSO finished in {:.2?}", t0.elapsed());
    Ok(())
}

/// `fcma clusters`
pub(crate) fn clusters(args: &Args) -> Result<()> {
    let top_k = top_k_of(args)?;
    let scores_path = stem(args, "scores")?;
    let scores = read_scores(&scores_path)?;
    let selected = select_top_k(&scores, top_k);
    let grid = match args.get("grid") {
        None => Grid3::cube_for(scores.len()),
        Some(spec) => {
            let dims: Vec<usize> =
                spec.split(',').map(str::parse).collect::<std::result::Result<_, _>>()?;
            let [x, y, z] = dims[..] else {
                return Err("--grid expects X,Y,Z".into());
            };
            if x == 0 || y == 0 || z == 0 {
                return Err("--grid extents must be at least 1".into());
            }
            Grid3::new(x, y, z)
        }
    };
    let size = grid.nx.checked_mul(grid.ny).and_then(|xy| xy.checked_mul(grid.nz));
    let size = size.ok_or("--grid holds more voxels than a voxel index can name")?;
    if let Some(v) = scores.iter().map(|s| s.voxel).max().filter(|&v| v >= size) {
        let Grid3 { nx, ny, nz } = grid;
        return Err(format!(
            "the {nx}x{ny}x{nz} grid holds {size} voxels; the scores name voxel {v}"
        )
        .into());
    }
    let clusters = extract_clusters(&grid, &selected);
    say!("cluster\tsize\tcentroid\tvoxels")?;
    for (i, c) in clusters.iter().enumerate() {
        let (x, y, z) = c.centroid(&grid);
        say!("{i}\t{}\t({x:.1},{y:.1},{z:.1})\t{:?}", c.len(), c.voxels)?;
    }
    Ok(())
}

/// `fcma mask`
pub(crate) fn mask(args: &Args) -> Result<()> {
    let data = stem(args, "data")?;
    let out = stem(args, "out")?;
    let threshold = args.get_finite("threshold", 0.0)?;
    let dataset = fio::load_dataset(&data)?;
    let mask = VoxelMask::threshold_mean_abs(&dataset, threshold);
    if mask.n_kept() == 0 {
        return Err("mask keeps zero voxels; lower --threshold".into());
    }
    let (masked, map) = mask.apply(&dataset);
    fio::save_dataset(&out, &masked)?;
    let mut f = std::fs::File::create(out.with_extension("map"))?;
    for &orig in &map {
        writeln!(f, "{orig}")?;
    }
    say!(
        "kept {} / {} voxels; wrote {} + .epochs + .map",
        mask.n_kept(),
        dataset.n_voxels(),
        out.with_extension("fcma").display()
    )?;
    Ok(())
}

fn write_scores(path: &Path, scores: &[VoxelScore]) -> Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "voxel\taccuracy")?;
    for s in scores {
        writeln!(f, "{}\t{:.6}", s.voxel, s.accuracy)?;
    }
    // Dropping the writer would discard a failed final write.
    f.flush()?;
    Ok(())
}

/// Read a scores file. An accuracy that is not a number in [0, 1] or a
/// voxel listed twice is refused: either would be ranked as if real.
fn read_scores(path: &Path) -> Result<Vec<VoxelScore>> {
    let f = BufReader::new(std::fs::File::open(path)?);
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (ln, line) in f.lines().enumerate() {
        let line = line?;
        if ln == 0 && line.starts_with("voxel") {
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let voxel: usize =
            parts.next().ok_or(format!("line {}: missing voxel", ln + 1))?.parse()?;
        let accuracy: f64 =
            parts.next().ok_or(format!("line {}: missing accuracy", ln + 1))?.parse()?;
        if !(0.0..=1.0).contains(&accuracy) {
            return Err(format!("line {}: accuracy {accuracy} is not in [0, 1]", ln + 1).into());
        }
        if !seen.insert(voxel) {
            return Err(format!("line {}: voxel {voxel} is listed twice", ln + 1).into());
        }
        out.push(VoxelScore { voxel, accuracy });
    }
    Ok(out)
}

/// Read a `--truth` file, one planted voxel per line. An empty list, a
/// voxel outside the dataset or a repeated one is refused: each would
/// print a recovery rate that measures nothing.
fn read_truth(path: &str, n_voxels: usize) -> Result<Vec<usize>> {
    let f = BufReader::new(std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?);
    let mut out = Vec::new();
    let mut listed = vec![false; n_voxels];
    for (ln, line) in f.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        let voxel: usize = t.parse().map_err(|e| format!("{path}: line {}: {e}", ln + 1))?;
        let Some(seen) = listed.get_mut(voxel) else {
            return Err(format!(
                "{path}: line {}: voxel {voxel} is not in the {n_voxels}-voxel dataset",
                ln + 1
            )
            .into());
        };
        if std::mem::replace(seen, true) {
            return Err(format!("{path}: line {}: voxel {voxel} is listed twice", ln + 1).into());
        }
        out.push(voxel);
    }
    if out.is_empty() {
        return Err(format!("{path}: lists no voxels").into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(v: &[&str]) -> Args {
        Args::parse(v.iter().map(ToString::to_string)).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fcma_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn generate_info_analyze_roundtrip() {
        let ds = tmp("cli_ds");
        let scores = tmp("cli_scores.tsv");
        generate(&args(&[
            "generate",
            "--preset",
            "tiny",
            "--voxels",
            "64",
            "--coupling",
            "1.8",
            "--out",
            ds.to_str().unwrap(),
        ]))
        .unwrap();
        info(&args(&["info", "--data", ds.to_str().unwrap()])).unwrap();
        analyze(&args(&[
            "analyze",
            "--data",
            ds.to_str().unwrap(),
            "--task-size",
            "32",
            "--top-k",
            "8",
            "--out",
            scores.to_str().unwrap(),
            "--truth",
            ds.with_extension("truth").to_str().unwrap(),
        ]))
        .unwrap();
        // Scores file parses back.
        let parsed = read_scores(&scores).unwrap();
        assert_eq!(parsed.len(), 64);
        assert!(parsed.iter().all(|s| (0.0..=1.0).contains(&s.accuracy)));
    }

    #[test]
    fn zero_task_size_and_zero_threads_are_typed_errors() {
        // `--task-size 0` used to reach `partition`'s assert and exit 101;
        // `--top-k 0` used to print results of a zero-feature classifier
        // (`offline`) or nothing at all, with exit 0.
        let ds = tmp("cli_zero_ds");
        let ds = ds.to_str().unwrap();
        generate(&args(&["generate", "--preset", "tiny", "--voxels", "32", "--out", ds])).unwrap();
        for (command, name, input, flag) in [
            (analyze as fn(&Args) -> Result<()>, "analyze", "--data", "--task-size"),
            (analyze, "analyze", "--data", "--threads"),
            (analyze, "analyze", "--data", "--top-k"),
            (offline, "offline", "--data", "--task-size"),
            (offline, "offline", "--data", "--top-k"),
            (clusters, "clusters", "--scores", "--top-k"),
        ] {
            let err = command(&args(&[name, input, ds, flag, "0"])).unwrap_err();
            assert_eq!(err.to_string(), format!("{flag} must be at least 1"));
        }
    }

    #[test]
    fn thread_counts_from_the_environment_obey_the_options_rules() {
        // `FCMA_THREADS=0`, `abc` and `-3` used to run on one thread,
        // exit 0. The variable is passed in, never set: tests share it.
        let plain = args(&["analyze"]);
        assert_eq!(threads_from(&plain, None).unwrap(), 1);
        assert_eq!(threads_from(&plain, Some("3")).unwrap(), 3);
        for (bad, want) in [
            ("0", "FCMA_THREADS must be at least 1"),
            ("abc", "FCMA_THREADS: \"abc\" is not a valid integer"),
            ("-3", "FCMA_THREADS: \"-3\" is not a valid integer"),
            ("", "FCMA_THREADS: \"\" is not a valid integer"),
        ] {
            assert_eq!(threads_from(&plain, Some(bad)).unwrap_err().to_string(), want);
        }
        let two = args(&["analyze", "--threads", "2"]);
        assert_eq!(threads_from(&two, Some("abc")).unwrap(), 2, "the option wins");
    }

    #[test]
    fn hostile_dataset_files_are_typed_errors() {
        use fcma_fmri::{io::IoError, DatasetError};
        let ds = tmp("cli_hostile_ds");
        let stem = ds.to_str().unwrap();
        let fcma = ds.with_extension("fcma");
        let epochs = ds.with_extension("epochs");
        let regenerate = || {
            generate(&args(&["generate", "--preset", "tiny", "--voxels", "32", "--out", stem]))
                .unwrap();
        };
        let io_error = |name: &str, command: fn(&Args) -> Result<()>| {
            let err = command(&args(&[name, "--data", stem])).unwrap_err();
            *err.downcast::<IoError>().expect("a dataset file error is an IoError")
        };

        // A header that declares 32 GiB over no payload used to abort in
        // the allocator (exit 134).
        regenerate();
        let mut header = b"FCMADAT1".to_vec();
        header.extend_from_slice(&(1u64 << 17).to_le_bytes());
        header.extend_from_slice(&(1u64 << 16).to_le_bytes());
        std::fs::write(&fcma, header).unwrap();
        assert!(matches!(io_error("info", info), IoError::Corrupt(_)));

        // An epoch whose start + len wraps used to pass validation and
        // panic in `analyze` (exit 101).
        regenerate();
        let table = std::fs::read_to_string(&epochs).unwrap();
        let mut lines: Vec<&str> = table.lines().collect();
        lines[1] = "0 0 18446744073709551615 12";
        std::fs::write(&epochs, lines.join("\n")).unwrap();
        for (name, command) in [("info", info as fn(&Args) -> Result<()>), ("analyze", analyze)] {
            assert!(matches!(
                io_error(name, command),
                IoError::Invalid(DatasetError::EpochOutOfRange { epoch: 0, .. })
            ));
        }

        // One NaN sample used to end in a ranking (exit 0).
        regenerate();
        let mut bytes = std::fs::read(&fcma).unwrap();
        let cols = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let at = 24 + (3 * cols + 5) * 4;
        bytes[at..at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        std::fs::write(&fcma, bytes).unwrap();
        for (name, command) in
            [("info", info as fn(&Args) -> Result<()>), ("analyze", analyze), ("offline", offline)]
        {
            assert!(matches!(
                io_error(name, command),
                IoError::NonFinite { voxel: 3, time: 5, .. }
            ));
        }
    }

    #[test]
    fn inputs_that_used_to_panic_are_typed_errors() {
        // Each of these exited 101 from an assert deep in the pipeline,
        // or failed without naming the input it failed on.
        let [one, two, out, scores] =
            ["cli_one_subject_ds", "cli_two_subjects_ds", "cli_no_ds", "cli_grid.tsv"]
                .map(|name| tmp(name).to_str().unwrap().to_owned());
        for (stem, subjects) in [(&one, "1"), (&two, "2")] {
            generate(&args(&["generate", "--voxels", "32", "--subjects", subjects, "--out", stem]))
                .unwrap();
        }
        let ranked: Vec<VoxelScore> =
            (0..32).map(|voxel| VoxelScore { voxel, accuracy: 0.5 }).collect();
        write_scores(Path::new(&scores), &ranked).unwrap();
        let grid = |spec| ["clusters", "--scores", &scores, "--grid", spec];
        // Paths under a regular file cannot be opened on any host.
        let [bad_out, bad_trace] = ["s.tsv", "t.json"].map(|name| format!("{scores}/{name}"));
        let [out_err, trace_err] =
            [&bad_out, &bad_trace].map(|path| format!("{path}: Not a directory (os error 20)"));
        for (command, argv, message) in [
            (
                analyze as fn(&Args) -> Result<()>,
                &["analyze", "--data", &one][..],
                "analyze needs at least 2 subjects to cross-validate; the dataset has 1",
            ),
            (
                offline,
                &["offline", "--data", &two],
                "offline needs at least 3 subjects to cross-validate; the dataset has 2",
            ),
            (clusters, &grid("0,3,3"), "--grid extents must be at least 1"),
            (clusters, &grid("2,2,2"), "the 2x2x2 grid holds 8 voxels; the scores name voxel 31"),
            (
                clusters,
                &grid("4294967296,4294967296,2"),
                "--grid holds more voxels than a voxel index can name",
            ),
            (
                generate,
                &["generate", "--voxels", "3", "--out", &out],
                "--voxels must be at least 4",
            ),
            (
                generate,
                &["generate", "--subjects", "0", "--out", &out],
                "--subjects must be at least 1",
            ),
            (
                analyze,
                &["analyze", "--data", &two, "--chaos-panic-task", "x"],
                "option --chaos-panic-task: \"x\" is not a valid integer",
            ),
            (
                analyze,
                &["analyze", "--data", &two, "--threads", "x"],
                "option --threads: \"x\" is not a valid integer",
            ),
            (
                generate,
                &["generate", "--voxels", "x", "--out", &out],
                "option --voxels: \"x\" is not a valid integer",
            ),
            (
                generate,
                &["generate", "--subjects", "x", "--out", &out],
                "option --subjects: \"x\" is not a valid integer",
            ),
            (
                generate,
                &["generate", "--seed", "x", "--out", &out],
                "option --seed: \"x\" is not a valid integer",
            ),
            // Non-finite numbers used to write a dataset every reader
            // refuses, or blame the threshold for keeping no voxel.
            (
                generate,
                &["generate", "--coupling", "NaN", "--out", &out],
                "option --coupling: \"NaN\" is not a valid finite number",
            ),
            (
                generate,
                &["generate", "--coupling", "inf", "--out", &out],
                "option --coupling: \"inf\" is not a valid finite number",
            ),
            (
                mask,
                &["mask", "--data", &two, "--threshold", "NaN", "--out", &out],
                "option --threshold: \"NaN\" is not a valid finite number",
            ),
            (analyze, &["analyze", "--data", &two, "--out", &bad_out], out_err.as_str()),
            (analyze, &["analyze", "--data", &two, "--trace-out", &bad_trace], &trace_err),
            (report, &["report", &bad_trace], &trace_err),
        ] {
            assert_eq!(command(&args(argv)).unwrap_err().to_string(), message, "{argv:?}");
        }
    }

    #[test]
    fn scores_and_truth_files_that_would_mislead_are_typed_errors() {
        // Each of these exited 0: a NaN accuracy ranked above every real
        // one, a repeated voxel filled two of the top-k places, and a
        // truth list that was empty, out of range or repeated printed a
        // recovery rate of 100%, 0% or half the real one.
        let [ds, scores, truth] = ["cli_truth_ds", "cli_bad_scores.tsv", "cli_bad.truth"]
            .map(|name| tmp(name).to_str().unwrap().to_owned());
        generate(&args(&["generate", "--voxels", "48", "--subjects", "2", "--out", &ds])).unwrap();
        for (contents, message) in [
            ("voxel\taccuracy\n0\tNaN\n1\t0.5\n2\t0.9\n", "line 2: accuracy NaN is not in [0, 1]"),
            ("0 0.5\n1 1.5\n", "line 2: accuracy 1.5 is not in [0, 1]"),
            ("0 0.5\n3 0.7\n3 0.9\n", "line 3: voxel 3 is listed twice"),
        ] {
            std::fs::write(&scores, contents).unwrap();
            let argv = ["clusters", "--scores", &scores, "--top-k", "3"];
            assert_eq!(clusters(&args(&argv)).unwrap_err().to_string(), message, "{contents:?}");
        }
        for (contents, message) in [
            ("", format!("{truth}: lists no voxels")),
            ("\n\n", format!("{truth}: lists no voxels")),
            (
                "3\n999999\n",
                format!("{truth}: line 2: voxel 999999 is not in the 48-voxel dataset"),
            ),
            ("3\n7\n3\n", format!("{truth}: line 3: voxel 3 is listed twice")),
        ] {
            std::fs::write(&truth, contents).unwrap();
            let argv = ["analyze", "--data", &ds, "--truth", &truth];
            assert_eq!(analyze(&args(&argv)).unwrap_err().to_string(), message, "{contents:?}");
        }
    }

    #[test]
    fn help_lists_exactly_the_options_each_command_takes() {
        let mut listed: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in HELP.lines().skip_while(|l| *l != "commands:").skip(1) {
            let line = line.strip_prefix("  ").unwrap_or(line);
            if !line.starts_with(' ') {
                let command = line.split_whitespace().next().unwrap();
                listed.push((command, Vec::new()));
            }
            let (_, options) = listed.last_mut().unwrap();
            options.extend(
                line.split_whitespace()
                    .filter_map(|w| w.trim_matches(['[', ']']).strip_prefix("--")),
            );
        }
        assert_eq!(listed.len(), 8, "{listed:?}");
        for (command, mut options) in listed {
            let mut accepted = crate::args::options_of(command).unwrap();
            options.sort_unstable();
            accepted.sort_unstable();
            assert_eq!(options, accepted, "`fcma {command}`");
        }
    }

    #[test]
    fn analyze_on_cluster_driver_with_checkpoint_and_resume() {
        let ds = tmp("cli_cluster_ds");
        let ckpt = tmp("cli_cluster.ckpt");
        let scores = tmp("cli_cluster_scores.out.tsv");
        let _ = std::fs::remove_file(&ckpt);
        generate(&args(&[
            "generate",
            "--preset",
            "tiny",
            "--voxels",
            "48",
            "--out",
            ds.to_str().unwrap(),
        ]))
        .unwrap();
        analyze(&args(&[
            "analyze",
            "--data",
            ds.to_str().unwrap(),
            "--task-size",
            "16",
            "--workers",
            "3",
            "--retries",
            "1",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--out",
            scores.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(ckpt.exists(), "cluster analyze must write its checkpoint");
        // Resuming from the finished checkpoint recomputes nothing and
        // reproduces the same scores.
        let scores2 = tmp("cli_cluster_scores2.out.tsv");
        analyze(&args(&[
            "analyze",
            "--data",
            ds.to_str().unwrap(),
            "--task-size",
            "16",
            "--workers",
            "3",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--resume",
            "--out",
            scores2.to_str().unwrap(),
        ]))
        .unwrap();
        let a = read_scores(&scores).unwrap();
        let b = read_scores(&scores2).unwrap();
        assert_eq!(a.len(), 48);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.voxel, y.voxel);
            assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits());
        }
    }

    #[test]
    fn cluster_only_options_need_workers() {
        for (option, value) in [
            ("chaos-panic-task", Some("16")),
            ("checkpoint", Some("sweep.ckpt")),
            ("resume", None),
            ("retries", Some("3")),
            ("task-deadline-ms", Some("500")),
            ("postmortem", Some("pm")),
        ] {
            let flag = format!("--{option}");
            let mut argv = vec!["analyze", "--data", "ds", flag.as_str()];
            argv.extend(value);
            let err = cluster_config_of(&args(&argv), 16).unwrap_err().to_string();
            assert_eq!(err, format!("--{option} needs --workers N (the cluster driver)"));
            argv.extend(["--workers", "0"]);
            assert!(cluster_config_of(&args(&argv), 16).is_err(), "{argv:?}");
        }
    }

    #[test]
    fn resume_without_checkpoint_is_an_error() {
        let a = args(&["analyze", "--data", "whatever", "--workers", "2", "--resume"]);
        assert!(cluster_config_of(&a, 16).is_err());
    }

    #[test]
    fn resume_with_missing_checkpoint_warns_and_starts_fresh() {
        let ckpt = tmp("cli_missing.ckpt");
        let _ = std::fs::remove_file(&ckpt);
        let a = args(&[
            "analyze",
            "--data",
            "whatever",
            "--workers",
            "2",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--resume",
        ]);
        let cfg = cluster_config_of(&a, 16).unwrap();
        assert_eq!(cfg.resume_from, None, "missing checkpoint must not be resumed from");
        assert_eq!(cfg.checkpoint.as_deref(), Some(ckpt.as_path()));
    }

    #[test]
    fn traced_analyze_writes_parseable_trace() {
        let ds = tmp("cli_trace_ds");
        let trace = tmp("cli_trace.json");
        generate(&args(&[
            "generate",
            "--preset",
            "tiny",
            "--voxels",
            "48",
            "--out",
            ds.to_str().unwrap(),
        ]))
        .unwrap();
        analyze(&args(&[
            "analyze",
            "--data",
            ds.to_str().unwrap(),
            "--task-size",
            "16",
            "--workers",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        let parsed = from_chrome_json(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert_eq!(parsed.span_count("cluster.run"), 1);
        assert_eq!(parsed.counter("cluster.tasks.total"), 3);
        assert_eq!(parsed.counter("cluster.tasks.completed"), 3);
        assert!(parsed.check_consistency().is_empty(), "{:?}", parsed.check_consistency());
        // `fcma report --check` accepts the file it just wrote.
        report(&args(&["report", trace.to_str().unwrap(), "--check"])).unwrap();
    }

    #[test]
    fn report_check_rejects_a_name_outside_the_taxonomy() {
        let trace = tmp("cli_unknown_name.json");
        let record = |name: &str| {
            format!("{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":1,\"dur\":1,\"args\":{{}}}}")
        };
        let events = [record("stage1.cor"), record("bench.core.process")].join(",");
        std::fs::write(&trace, format!("{{\"traceEvents\":[{events}]}}")).unwrap();
        let path = trace.to_str().unwrap();
        let err = report(&args(&["report", path, "--check"])).unwrap_err();
        assert_eq!(err.to_string(), "1 consistency violation(s)");
        // Without --check the violation is printed, not an error.
        report(&args(&["report", path])).unwrap();
    }

    #[test]
    fn chaos_run_emits_postmortem() {
        let ds = tmp("cli_chaos_ds");
        let trace = tmp("cli_chaos_trace.json");
        let pm_dir = tmp("cli_chaos_postmortems");
        let _ = std::fs::remove_dir_all(&pm_dir);
        generate(&args(&[
            "generate",
            "--preset",
            "tiny",
            "--voxels",
            "48",
            "--out",
            ds.to_str().unwrap(),
        ]))
        .unwrap();
        analyze(&args(&[
            "analyze",
            "--data",
            ds.to_str().unwrap(),
            "--task-size",
            "16",
            "--workers",
            "3",
            "--chaos-panic-task",
            "16",
            "--postmortem",
            pm_dir.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        // The injected panic must have produced a dump that names the
        // panicking task and holds its causal chain.
        let dump = pm_dir.join("postmortem-task-panic-task16-attempt1.txt");
        let text = std::fs::read_to_string(&dump)
            .unwrap_or_else(|e| panic!("missing postmortem artifact in {}: {e}", pm_dir.display()));
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("fcma-postmortem v2"));
        let trigger = lines.next().unwrap();
        assert!(trigger.starts_with("trigger: task.panic task=16 "), "{trigger}");
        let chain =
            text.split_once("-- causal chain: task 16 --\n").map(|(_, c)| c.lines().count());
        assert!(chain.unwrap_or(0) > 0, "causal chain for the panicking task is empty");
        // The trace passes the causality check.
        report(&args(&["report", trace.to_str().unwrap(), "--check"])).unwrap();
    }

    #[test]
    fn report_rejects_garbage_input() {
        let bad = tmp("cli_bad_trace.json");
        // The nest used to overflow the parser's stack and abort (exit 134).
        for garbage in ["not json".to_owned(), "[".repeat(200_000)] {
            std::fs::write(&bad, garbage).unwrap();
            assert!(report(&args(&["report", bad.to_str().unwrap()])).is_err());
        }
        assert!(report(&args(&["report"])).is_err());
    }

    #[test]
    fn clusters_reads_scores() {
        let scores_path = tmp("cli_cluster_scores.tsv");
        let scores: Vec<VoxelScore> = (0..27)
            .map(|v| VoxelScore { voxel: v, accuracy: if v < 4 { 0.9 } else { 0.5 } })
            .collect();
        write_scores(&scores_path, &scores).unwrap();
        clusters(&args(&[
            "clusters",
            "--scores",
            scores_path.to_str().unwrap(),
            "--top-k",
            "4",
            "--grid",
            "3,3,3",
        ]))
        .unwrap();
    }

    #[test]
    fn mask_threshold_roundtrip() {
        let ds = tmp("cli_mask_ds");
        let out = tmp("cli_mask_out");
        generate(&args(&[
            "generate",
            "--preset",
            "tiny",
            "--voxels",
            "48",
            "--out",
            ds.to_str().unwrap(),
        ]))
        .unwrap();
        mask(&args(&[
            "mask",
            "--data",
            ds.to_str().unwrap(),
            "--threshold",
            "0.0",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let masked = fio::load_dataset(&out).unwrap();
        assert_eq!(masked.n_voxels(), 48); // nothing below 0.0 threshold
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(generate(&args(&["generate", "--preset", "bogus", "--out", "x"])).is_err());
        assert!(info(&args(&["info", "--data", "/nonexistent/xyz"])).is_err());
    }
}
