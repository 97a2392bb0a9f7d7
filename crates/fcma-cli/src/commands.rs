//! CLI subcommand implementations.

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
use fcma_trace::export::{from_chrome_json, to_chrome_json, to_prometheus_text};
use fcma_trace::slo::{SloRule, SloSpec, SloViolation};
use fcma_trace::{event, Collector};
use std::error::Error;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// The command reference.
const HELP: &str = "fcma — full correlation matrix analysis\n\n\
         commands:\n\
         \u{20} generate  synthesize a dataset      --preset tiny|face-scene|attention\n\
         \u{20}                                     --voxels N --subjects S --coupling X\n\
         \u{20}                                     --placement random|blobs --seed N --out STEM\n\
         \u{20} info      describe a dataset        --data STEM\n\
         \u{20} analyze   score every voxel         --data STEM --task-size N --top-k K\n\
         \u{20}                                     [--out scores.tsv]\n\
         \u{20}                                     [--threads N] kernel threads per worker\n\
         \u{20}                                     (default: $FCMA_THREADS or 1)\n\
         \u{20}                                     [--truth STEM.truth]\n\
         \u{20}                                     [--workers N] run on the fault-tolerant\n\
         \u{20}                                     threaded cluster driver, with\n\
         \u{20}                                     [--retries N] [--task-deadline-ms MS]\n\
         \u{20}                                     [--checkpoint FILE] [--resume]\n\
         \u{20}                                     [--trace-out trace.json] Chrome trace\n\
         \u{20}                                     [--metrics-out metrics.prom] Prometheus text\n\
         \u{20}                                     [--postmortem DIR] flight-recorder dumps\n\
         \u{20}                                     [--chaos-panic-task N] inject one panic on\n\
         \u{20}                                     the task starting at voxel N (fault drill)\n\
         \u{20} report    summarize a trace file    fcma report trace.json [--check]\n\
         \u{20}                                     [--slo slo.toml] enforce latency SLOs\n\
         \u{20} top       per-worker utilization    fcma top trace.json\n\
         \u{20} postmortem summarize a dump         fcma postmortem FILE\n\
         \u{20} offline   nested LOSO analysis      --data STEM --top-k K [--task-size N]\n\
         \u{20}                                     [--threads N]\n\
         \u{20} clusters  ROI cluster extraction    --scores scores.tsv --top-k K [--grid X,Y,Z]\n\
         \u{20} mask      threshold-mask a dataset  --data STEM --threshold T --out STEM2\n\
         \u{20} help      this text";

/// Print the command reference.
pub(crate) fn print_help() {
    println!("{HELP}");
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
    if let Some(v) = args.get("voxels") {
        cfg.n_voxels = v.parse()?;
        cfg.n_informative = (cfg.n_voxels / 16).max(4) & !1;
        if cfg.n_voxels < cfg.n_informative {
            return Err(format!("--voxels must be at least {}", cfg.n_informative).into());
        }
    }
    if let Some(v) = args.get("subjects") {
        cfg.n_subjects = v.parse()?;
        if cfg.n_subjects == 0 {
            return Err("--subjects must be at least 1".into());
        }
    }
    if let Some(v) = args.get("coupling") {
        cfg.coupling = v.parse()?;
    }
    if let Some(v) = args.get("seed") {
        cfg.seed = v.parse()?;
    }
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
    println!(
        "wrote {} ({} voxels, {} subjects, {} epochs) + .epochs + .truth ({} planted voxels)",
        out.with_extension("fcma").display(),
        dataset.n_voxels(),
        dataset.n_subjects(),
        dataset.n_epochs(),
        truth.informative.len()
    );
    Ok(())
}

/// `fcma info`
pub(crate) fn info(args: &Args) -> Result<()> {
    let data = stem(args, "data")?;
    let dataset = fio::load_dataset(&data)?;
    println!("dataset    {}", data.display());
    println!("voxels     {}", dataset.n_voxels());
    println!("timepoints {}", dataset.n_timepoints());
    println!("subjects   {}", dataset.n_subjects());
    println!("epochs     {}", dataset.n_epochs());
    let a = dataset.epochs().iter().filter(|e| e.label == fcma_fmri::Condition::A).count();
    println!("labels     {a} A / {} B", dataset.n_epochs() - a);
    let lens: Vec<usize> = dataset.epochs().iter().map(|e| e.len).collect();
    println!("epoch len  {}..{}", lens.iter().min().unwrap(), lens.iter().max().unwrap());
    Ok(())
}

/// Kernel threads for the executors' pool: `--threads` if given, else
/// the `FCMA_THREADS` environment variable, else 1.
fn threads_of(args: &Args) -> Result<usize> {
    match args.get("threads") {
        Some(v) => {
            let n: usize = v.parse()?;
            if n == 0 {
                return Err("--threads must be at least 1".into());
            }
            Ok(n)
        }
        None => Ok(Pool::from_env().threads()),
    }
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

/// Build the cluster driver config from the analyze flags.
fn cluster_config_of(args: &Args, task_size: usize) -> Result<ClusterConfig> {
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
        n_workers: args.get_parsed("workers", 0usize, "integer")?,
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
    let pool = Pool::new(threads_of(args)?);
    let mut exec: Arc<dyn TaskExecutor> =
        Arc::new(OptimizedExecutor { pool, ..Default::default() });
    if let Some(start) = args.get("chaos-panic-task") {
        // Fault drill: one injected panic exercises the whole recovery
        // and observability path (requeue, postmortem, causal trace).
        let start: usize = start.parse()?;
        exec = Arc::new(ChaosExecutor::panic_once(exec, start));
        eprintln!("chaos: will panic once on the task starting at voxel {start}");
    }
    let task_size = task_size_of(args)?;
    let top_k = top_k_of(args)?;
    let trace_out = args.get("trace-out").map(PathBuf::from);
    let metrics_out = args.get("metrics-out").map(PathBuf::from);
    // Install the collector before the config is built so the
    // `cluster.resume_missing` event (emitted while resolving --resume)
    // lands in the trace.
    let collector = (trace_out.is_some() || metrics_out.is_some()).then(Collector::new);
    let scoped = collector.as_ref().map(Collector::install_scoped);
    let cluster_cfg = cluster_config_of(args, task_size)?;

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

    if let Some(scoped) = &scoped {
        let report = scoped.drain();
        if let Some(path) = &trace_out {
            std::fs::write(path, to_chrome_json(&report))?;
            eprintln!("wrote trace {}", path.display());
        }
        if let Some(path) = &metrics_out {
            std::fs::write(path, to_prometheus_text(&report))?;
            eprintln!("wrote metrics {}", path.display());
        }
    }

    if let Some(out) = args.get("out") {
        write_scores(Path::new(out), &scores)?;
        eprintln!("wrote {out}");
    }
    let selected = select_top_k(&scores, top_k);
    println!("voxel\taccuracy");
    for &v in &selected {
        println!("{v}\t{:.4}", scores[v].accuracy);
    }
    if let Some(truth_path) = args.get("truth") {
        let truth = read_index_list(Path::new(truth_path))?;
        let rec = recovery_rate(&selected, &truth);
        eprintln!("recovery of planted network: {:.0}%", rec * 100.0);
    }
    Ok(())
}

/// `fcma report` — summarize a Chrome trace written by `analyze --trace-out`.
pub(crate) fn report(args: &Args) -> Result<()> {
    let path = args.positional(0).ok_or("report needs a trace file: `fcma report trace.json`")?;
    let text = std::fs::read_to_string(path)?;
    let report = from_chrome_json(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", report.summary_table());
    let violations = report.check_consistency();
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
    if let Some(slo_path) = args.get("slo") {
        let spec = SloSpec::parse(&std::fs::read_to_string(slo_path)?)
            .map_err(|e| format!("{slo_path}: {e}"))?;
        let broken: Vec<SloViolation> = spec.check(&report.span_duration_histograms());
        if broken.is_empty() {
            let rules: &[SloRule] = &spec.rules;
            eprintln!("slo: ok ({} rule(s))", rules.len());
        } else {
            for v in &broken {
                eprintln!("{v}");
            }
            return Err(format!("{} SLO violation(s)", broken.len()).into());
        }
    }
    Ok(())
}

/// `fcma top` — per-worker utilization and straggler timeline from a
/// Chrome trace written by `analyze --trace-out`.
pub(crate) fn top(args: &Args) -> Result<()> {
    let path = args.positional(0).ok_or("top needs a trace file: `fcma top trace.json`")?;
    let text = std::fs::read_to_string(path)?;
    let report = from_chrome_json(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", report.top_table());
    Ok(())
}

/// `fcma postmortem` — validate and summarize a flight-recorder dump.
pub(crate) fn postmortem(args: &Args) -> Result<()> {
    let path = args
        .positional(0)
        .ok_or("postmortem needs a dump file: `fcma postmortem postmortem-....txt`")?;
    let text = std::fs::read_to_string(path)?;
    let summary: fcma_trace::postmortem::PostmortemSummary =
        fcma_trace::postmortem::validate(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("postmortem  {path}");
    println!("trigger     {}", summary.trigger);
    println!("events      {}", summary.events);
    println!("chain       {} event(s)", summary.chain_len);
    Ok(())
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
    println!("fold\theld-out\ttest-accuracy");
    for f in &r.folds {
        println!("{}\t{}\t{:.4}", f.held_out, f.held_out, f.test_accuracy);
    }
    println!("mean test accuracy\t{:.4}", r.mean_test_accuracy);
    println!("stable ROI ({} voxels)\t{:?}", r.stable.len(), r.stable);
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
    println!("cluster\tsize\tcentroid\tvoxels");
    for (i, c) in clusters.iter().enumerate() {
        let (x, y, z) = c.centroid(&grid);
        println!("{i}\t{}\t({x:.1},{y:.1},{z:.1})\t{:?}", c.len(), c.voxels);
    }
    Ok(())
}

/// `fcma mask`
pub(crate) fn mask(args: &Args) -> Result<()> {
    let data = stem(args, "data")?;
    let out = stem(args, "out")?;
    let threshold: f32 = args.get_parsed("threshold", 0.0f32, "number")?;
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
    println!(
        "kept {} / {} voxels; wrote {} + .epochs + .map",
        mask.n_kept(),
        dataset.n_voxels(),
        out.with_extension("fcma").display()
    );
    Ok(())
}

fn write_scores(path: &Path, scores: &[VoxelScore]) -> Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "voxel\taccuracy")?;
    for s in scores {
        writeln!(f, "{}\t{:.6}", s.voxel, s.accuracy)?;
    }
    Ok(())
}

fn read_scores(path: &Path) -> Result<Vec<VoxelScore>> {
    let f = BufReader::new(std::fs::File::open(path)?);
    let mut out = Vec::new();
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
        out.push(VoxelScore { voxel, accuracy });
    }
    Ok(out)
}

fn read_index_list(path: &Path) -> Result<Vec<usize>> {
    let f = BufReader::new(std::fs::File::open(path)?);
    let mut out = Vec::new();
    for line in f.lines() {
        let line = line?;
        let t = line.trim();
        if !t.is_empty() {
            out.push(t.parse()?);
        }
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
        // Each of these exited 101 from an assert deep in the pipeline.
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
        ] {
            assert_eq!(command(&args(argv)).unwrap_err().to_string(), message, "{argv:?}");
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
        assert_eq!(listed.len(), 10, "{listed:?}");
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
    fn traced_analyze_writes_parseable_trace_and_metrics() {
        let ds = tmp("cli_trace_ds");
        let trace = tmp("cli_trace.json");
        let metrics = tmp("cli_trace.prom");
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
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        let parsed = from_chrome_json(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert_eq!(parsed.span_count("cluster.run"), 1);
        assert_eq!(parsed.counter("cluster.tasks.total"), 3);
        assert_eq!(parsed.counter("cluster.tasks.completed"), 3);
        assert!(parsed.check_consistency().is_empty(), "{:?}", parsed.check_consistency());
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("fcma_cluster_tasks_completed 3"), "{prom}");
        // `fcma report --check` accepts the file it just wrote.
        report(&args(&["report", trace.to_str().unwrap(), "--check"])).unwrap();
    }

    #[test]
    fn chaos_run_emits_postmortem_and_survives_slo_and_top() {
        let ds = tmp("cli_chaos_ds");
        let trace = tmp("cli_chaos_trace.json");
        let pm_dir = tmp("cli_chaos_postmortems");
        let slo = tmp("cli_chaos_slo.toml");
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
        // The injected panic must have produced a validating dump that
        // names the panicking task.
        let dump = pm_dir.join("postmortem-task-panic-task16-attempt1.txt");
        assert!(dump.exists(), "missing postmortem artifact in {}", pm_dir.display());
        let summary =
            fcma_trace::postmortem::validate(&std::fs::read_to_string(&dump).unwrap()).unwrap();
        assert!(summary.trigger.starts_with("task.panic task=16"), "{}", summary.trigger);
        assert!(summary.chain_len > 0, "causal chain for the panicking task is empty");
        postmortem(&args(&["postmortem", dump.to_str().unwrap()])).unwrap();
        // The trace passes the causality check and drives `fcma top`.
        report(&args(&["report", trace.to_str().unwrap(), "--check"])).unwrap();
        top(&args(&["top", trace.to_str().unwrap()])).unwrap();
        // A generous SLO passes; an absurd one fails the command.
        std::fs::write(&slo, "[[slo]]\nspan = \"cluster.dispatch\"\np = 0.99\nmax_ms = 60000\n")
            .unwrap();
        report(&args(&["report", trace.to_str().unwrap(), "--slo", slo.to_str().unwrap()]))
            .unwrap();
        std::fs::write(&slo, "[[slo]]\nspan = \"cluster.dispatch\"\np = 0.5\nmax_ms = 0.000001\n")
            .unwrap();
        assert!(report(&args(&[
            "report",
            trace.to_str().unwrap(),
            "--slo",
            slo.to_str().unwrap(),
        ]))
        .is_err());
    }

    #[test]
    fn report_rejects_garbage_input() {
        let bad = tmp("cli_bad_trace.json");
        std::fs::write(&bad, "not json").unwrap();
        assert!(report(&args(&["report", bad.to_str().unwrap()])).is_err());
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
