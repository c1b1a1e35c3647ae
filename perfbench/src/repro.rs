//! The `repro` experiments layer, measured inside the traced `kernel`
//! run: cold `repro all --quick` passes that call `render_experiment`
//! once per name in `EXPERIMENTS`, each checked against the golden
//! digest of the `repro all --quick` stdout, and the reproduction error
//! of the simulated speed-ups at `Sizes::full()`.
//!
//! A timed `repro` workload (one cold pass per op) is not part of the
//! benchmark: its two busy workers make it about twice as sensitive to
//! a shared host as the kernel, and ten runs spread past the largest
//! bound the benchmark may set (see `README.md`).

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use hirata_lab::{DiskCache, Lab};
use hirata_repro::{
    experiments, render_experiment, Session, Sizes, EXPERIMENTS, PAPER_TABLE2, PAPER_TABLE3,
    PAPER_TABLE5,
};

use crate::guarded;
use crate::trace::{Tracer, PROBE_OP};

/// Digest of the stdout bytes of `repro all --quick`.
pub const GOLDEN_OUTPUT: u64 = 0x2261_85f5_5209_a859;

/// Traced passes per probe.
pub const PASSES: usize = 5;

/// Deletes every entry of the store so the next pass starts cold.
fn empty_store(dir: &Path) -> Result<(), String> {
    for entry in fs::read_dir(dir).map_err(|e| format!("cannot list store: {e}"))? {
        let path = entry.map_err(|e| format!("cannot list store: {e}"))?.path();
        fs::remove_file(&path).map_err(|e| format!("cannot empty store: {e}"))?;
    }
    Ok(())
}

/// Mean absolute percentage error of simulated against published
/// values.
fn mape(pairs: &[(f64, f64)]) -> f64 {
    let sum: f64 = pairs.iter().map(|&(sim, paper)| ((sim - paper) / paper).abs()).sum();
    sum / pairs.len() as f64 * 100.0
}

/// Error of the simulated Table 2, 3 and 5 speed-ups at
/// `Sizes::full()` against the paper, in percent.
pub fn paper_errors() -> [f64; 3] {
    let session = Session::new(Lab::new().without_cache().quiet());
    let sizes = Sizes::full();

    let (_, rows) = experiments::table2(&session, &sizes.ray, false);
    let mut t2 = Vec::new();
    for paper in PAPER_TABLE2 {
        let sim = rows.iter().find(|r| r.slots == paper.slots).expect("Table 2 row per slot count");
        t2.push((sim.one_ls_no_standby, paper.one_ls_no_standby));
        t2.push((sim.one_ls_standby, paper.one_ls_standby));
        t2.push((sim.two_ls_no_standby, paper.two_ls_no_standby));
        t2.push((sim.two_ls_standby, paper.two_ls_standby));
    }

    let (_, cells) = experiments::table3(&session, &sizes.ray);
    let t3: Vec<(f64, f64)> = PAPER_TABLE3
        .iter()
        .map(|&(width, slots, paper)| {
            let sim = cells
                .iter()
                .find(|c| c.width == width && c.slots == slots)
                .expect("Table 3 cell per (D,S)");
            (sim.speedup, paper)
        })
        .collect();

    let (paper_seq, paper_eager) = PAPER_TABLE5;
    let slots: Vec<usize> = paper_eager.iter().map(|&(s, _)| s).collect();
    let t5 = experiments::table5(&session, sizes.list, &slots);
    let t5: Vec<(f64, f64)> = paper_eager
        .iter()
        .zip(&t5.eager)
        .map(|(&(_, paper_cpi), &(_, sim_cpi))| (t5.sequential / sim_cpi, paper_seq / paper_cpi))
        .collect();

    [mape(&t2), mape(&t3), mape(&t5)]
}

/// Runs [`PASSES`] cold traced passes through a `Lab` with its default
/// workers on an emptied store, then the full-size error computation.
/// Adds `repro.<experiment>_ms` and `repro.err.*` to `metrics`; returns
/// the steps (passes and the error computation) attempted and failed.
///
/// # Errors
///
/// A store that cannot be opened or emptied.
pub fn probe(
    golden: u64,
    work_dir: &Path,
    t: &mut Tracer,
    metrics: &mut BTreeMap<String, f64>,
) -> Result<(u64, u64), String> {
    let cache = DiskCache::open(work_dir.join("repro-store"))
        .map_err(|e| format!("cannot open store: {e}"))?;
    let session = Session::new(Lab::new().with_cache(cache.clone()).quiet());
    let sizes = Sizes::quick();
    let mut failed = 0;
    t.set_on(true);
    for pass in 0..PASSES {
        empty_store(cache.dir())?;
        t.set_op(PROBE_OP + pass as u32);
        let output = guarded(|| {
            let mut out = String::new();
            for &name in EXPERIMENTS.iter() {
                let table =
                    t.span("repro.experiment", name, || render_experiment(&session, &sizes, name));
                out.push_str(&table.ok_or_else(|| format!("unknown experiment {name}"))?);
                out.push('\n');
            }
            Ok(out)
        });
        let verdict = output.and_then(|out| {
            let digest = crate::fnv1a(out.as_bytes());
            if digest == golden {
                Ok(())
            } else {
                Err(format!("output digest {digest:016x}, expected {golden:016x}"))
            }
        });
        if let Err(e) = verdict {
            eprintln!("repro pass {pass} failed: {e}");
            failed += 1;
        }
    }
    for &name in EXPERIMENTS.iter() {
        let ms = t.median_per_op("repro.experiment", Some(name)) / 1e6;
        metrics.insert(format!("repro.{name}_ms"), ms);
    }
    match guarded(|| Ok(paper_errors())) {
        Ok([t2, t3, t5]) => {
            metrics.insert("repro.err.table2_pct".into(), t2);
            metrics.insert("repro.err.table3_pct".into(), t3);
            metrics.insert("repro.err.table5_pct".into(), t5);
        }
        Err(e) => {
            eprintln!("repro error computation failed: {e}");
            failed += 1;
        }
    }
    Ok((PASSES as u64 + 1, failed))
}
