//! The experiment session: one [`Lab`] engine shared by every
//! experiment, plus workload sizing and the table dispatcher the
//! `repro` binary and the integration tests share.

use hirata_lab::{Job, JobError, JobOutput, JobResult, Lab};
use hirata_sim::RunStats;
use hirata_workloads::linked_list::ListShape;
use hirata_workloads::raytrace::RayTraceParams;

use crate::experiments;
use crate::tables;

/// Workload sizes for a full or quick pass.
pub struct Sizes {
    /// Ray-tracer scene.
    pub ray: RayTraceParams,
    /// Livermore Kernel 1 vector length.
    pub kernel1_n: usize,
    /// Linked-list shape for Table 5.
    pub list: ListShape,
}

impl Sizes {
    /// Paper-scale workloads.
    pub fn full() -> Self {
        Sizes {
            ray: RayTraceParams::default(),
            kernel1_n: 512,
            list: ListShape { nodes: 200, break_at: Some(199) },
        }
    }

    /// Reduced workloads for fast iteration (`--quick`).
    pub fn quick() -> Self {
        Sizes {
            ray: RayTraceParams { width: 8, height: 8, spheres: 4, seed: 42, shadows: true },
            kernel1_n: 64,
            list: ListShape { nodes: 40, break_at: Some(39) },
        }
    }
}

/// An experiment session: a configured execution engine. Every
/// experiment submits its simulations as a batch through the session,
/// so sweeps run in parallel and repeat runs come from the result
/// cache.
pub struct Session {
    lab: Lab,
    /// Every job this session ran, in submission order, with its
    /// outcome: the pinned-cycles test reads it.
    #[cfg(test)]
    log: std::sync::Mutex<Vec<(String, String)>>,
}

impl Session {
    /// Wraps an engine.
    pub fn new(lab: Lab) -> Self {
        Session {
            lab,
            #[cfg(test)]
            log: Default::default(),
        }
    }

    /// A session for unit tests: serial, no cache, no progress
    /// chatter.
    pub fn for_tests() -> Self {
        Session::new(Lab::new().with_workers(1).without_cache().quiet())
    }

    /// Runs a batch and returns per-job outputs in submission order.
    ///
    /// # Panics
    ///
    /// Panics on the first failed job — experiment programs are
    /// trusted, so a failure is a harness bug.
    pub fn outputs(&self, jobs: Vec<Job>) -> Vec<JobOutput> {
        let names: Vec<String> = jobs.iter().map(|j| j.name.clone()).collect();
        self.run_batch(jobs)
            .into_iter()
            .zip(names)
            .map(|(result, name)| match result {
                Ok(out) => out,
                Err(err) => panic!("experiment job `{name}` failed: {err}"),
            })
            .collect()
    }

    /// Runs a batch and returns the stats of each job.
    pub fn stats(&self, jobs: Vec<Job>) -> Vec<RunStats> {
        self.outputs(jobs).into_iter().map(|out| out.stats).collect()
    }

    /// Runs a batch and returns raw per-job results (for experiments
    /// where some configurations are expected to fail, such as the
    /// deadlock ablations).
    pub fn results(&self, jobs: Vec<Job>) -> Vec<JobResult> {
        let results = self.run_batch(jobs);
        for result in &results {
            // Panics and timeouts are harness failures even here;
            // only simulator machine checks are expected outcomes.
            if let Err(err @ (JobError::Panicked(_) | JobError::Timeout(_))) = result {
                panic!("experiment job failed: {err}");
            }
        }
        results
    }

    /// Runs a batch on the engine; test builds also log each job's
    /// outcome.
    fn run_batch(&self, jobs: Vec<Job>) -> Vec<JobResult> {
        #[cfg(test)]
        let names: Vec<String> = jobs.iter().map(|j| j.name.clone()).collect();
        let results = self.lab.run_batch(jobs).results;
        #[cfg(test)]
        self.log.lock().unwrap().extend(names.into_iter().zip(results.iter().map(tests::outcome)));
        results
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new(Lab::new())
    }
}

/// Names of every experiment, in the order `all` runs them.
pub const EXPERIMENTS: [&str; 12] = [
    "table2",
    "table2-private",
    "table3",
    "table4",
    "table5",
    "rotation",
    "utilization",
    "concurrent",
    "finite-cache",
    "ablations",
    "kernels",
    "trace-driven",
];

/// Runs one named experiment and renders its table. Returns `None`
/// for an unknown name.
pub fn render_experiment(session: &Session, sizes: &Sizes, which: &str) -> Option<String> {
    Some(match which {
        "table2" => {
            let (base, rows) = experiments::table2(session, &sizes.ray, false);
            tables::render_table2(base, &rows, false)
        }
        "table2-private" => {
            let (base, rows) = experiments::table2(session, &sizes.ray, true);
            tables::render_table2(base, &rows, true)
        }
        "table3" => {
            let (base, cells) = experiments::table3(session, &sizes.ray);
            tables::render_table3(base, &cells)
        }
        "table4" => tables::render_table4(&experiments::table4(session, sizes.kernel1_n)),
        "table5" => {
            let t = experiments::table5(session, sizes.list, &[2, 3, 4, 6, 8]);
            tables::render_table5(&t)
        }
        "rotation" => tables::render_rotation(&experiments::rotation_sweep(session, &sizes.ray)),
        "utilization" => {
            let stats = experiments::utilization(session, &sizes.ray, 8);
            tables::render_utilization(8, &stats)
        }
        "concurrent" => {
            let threads = 4;
            tables::render_concurrent(threads, &experiments::concurrent(session, threads, 200))
        }
        "finite-cache" => {
            tables::render_finite_cache(&experiments::finite_cache(session, &sizes.ray))
        }
        "ablations" => tables::render_ablations(&experiments::ablations(session, &sizes.ray)),
        "kernels" => tables::render_kernel_sweep(&experiments::kernel_sweep(session, &sizes.ray)),
        "trace-driven" => {
            tables::render_trace_driven(&experiments::trace_driven(session, &sizes.ray))
        }
        _ => return None,
    })
}

/// Runs every experiment and returns exactly the bytes the `repro`
/// binary prints to stdout for `all`: each table followed by a
/// newline, in [`EXPERIMENTS`] order.
pub fn run_all(session: &Session, sizes: &Sizes) -> String {
    EXPERIMENTS
        .iter()
        .map(|name| {
            let table =
                render_experiment(session, sizes, name).expect("EXPERIMENTS names are known");
            format!("{table}\n")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned outcome of every `repro --quick all` job, one line
    /// each: experiment, job name, and cycles, or the `MachineError`
    /// variant of a job expected to fail. The experiment leads because
    /// `table2` and `table2-private` share job names.
    const PINNED: &str = include_str!("../tests/quick_cycles.txt");

    /// A job's outcome as pinned: its cycles, or its error's variant.
    pub(super) fn outcome(result: &JobResult) -> String {
        match result {
            Ok(out) => out.stats.cycles.to_string(),
            Err(JobError::Sim(e)) => {
                format!("{e:?}").chars().take_while(char::is_ascii_alphanumeric).collect()
            }
            Err(e) => e.to_string(),
        }
    }

    /// A timing change anywhere in the simulator names the experiment
    /// and the job it moved. To accept an intended change, copy the
    /// listing the failure writes over `tests/quick_cycles.txt`.
    #[test]
    fn quick_all_cycles_are_pinned() {
        let session = Session::for_tests();
        let sizes = Sizes::quick();
        let mut actual = String::new();
        for name in EXPERIMENTS {
            render_experiment(&session, &sizes, name).expect("EXPERIMENTS names are known");
            for (job, outcome) in session.log.lock().unwrap().drain(..) {
                actual.push_str(&format!("{name} | {job} | {outcome}\n"));
            }
        }
        if actual == PINNED {
            return;
        }
        let (pinned, now): (Vec<&str>, Vec<&str>) =
            (PINNED.lines().collect(), actual.lines().collect());
        let mut diff: Vec<String> = pinned
            .iter()
            .zip(&now)
            .filter(|(p, n)| p != n)
            .map(|(p, n)| format!("  pinned {p}\n  now    {n}"))
            .collect();
        if pinned.len() != now.len() {
            diff.push(format!("  {} jobs pinned, {} run now", pinned.len(), now.len()));
        }
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/quick_cycles.actual.txt");
        let _ = std::fs::write(out, &actual);
        panic!(
            "{} pinned job(s) changed (full listing in {out}):\n{}",
            diff.len(),
            diff.join("\n")
        );
    }
}
