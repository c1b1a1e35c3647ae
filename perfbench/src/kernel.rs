//! `kernel`: one op is one pass over the twelve grid points — the ray
//! tracer, Livermore K1 and the Figure 6 list at s = 1, 2, 4, 8. Each
//! point builds a `Machine` from its predecoded program on the default
//! `Config::base_risc()` (s = 1) or `Config::multithreaded(s)` and runs
//! it to completion. K1 uses `Strategy::None` at s = 1 and
//! `ReservationB` above; the list is sequential at s = 1 and eager
//! above. Set-up generates, assembles and predecodes the programs.

use std::sync::Arc;
use std::time::Instant;

use hirata_isa::Program;
use hirata_sched::Strategy;
use hirata_sim::{Config, Machine, MachineError, PredecodedProgram, RunStats, StallReason};
use hirata_workloads::linked_list::{self, ListShape};
use hirata_workloads::livermore::{kernel1_program, kernel1_reference, X_BASE};
use hirata_workloads::raytrace::{self, RayTraceParams, IMAGE_BASE};

use crate::host::Reference;
use crate::metrics::{POINTS, STALLS};
use crate::trace::{Tracer, SETUP_OP};
use crate::{
    fnv1a, guarded, heap, op_is_traced, Options, Outcome, SplitMix64, Timings, REFERENCE_EVERY,
    SETUP_REPS,
};

/// Passes in a round.
pub const OPS_PER_ROUND: usize = 100;

/// Nominal seconds of a round.
pub const ROUND_SECONDS: f64 = 1.6;

/// Threads the host's reference loop runs on: a pass runs on one.
const REFERENCE_THREADS: usize = 1;

/// Ray-tracer image edge and sphere count. The scene itself comes
/// from the seed.
const RAY_EDGE: usize = 6;
const RAY_SPHERES: usize = 4;
/// Livermore K1 vector length.
const K1_N: usize = 384;
/// Figure 6 list length; the break node comes from the seed and lies
/// in the last [`BREAK_WINDOW`] nodes, so every seed traverses nearly
/// the whole list.
const LIST_NODES: usize = 400;
const BREAK_WINDOW: u64 = 8;

/// RunStats digests of every point at [`crate::DEFAULT_SEED`].
pub const GOLDEN: [(&str, u64); 12] = [
    ("raytrace-s1", 0x7b2381f55738b253),
    ("livermore-k1-s1", 0xa994a7a8f13e78d3),
    ("fig6-list-s1", 0x5eaade2765fcb05b),
    ("raytrace-s2", 0xde234375f8e04f87),
    ("livermore-k1-s2", 0x26904ada6c0f2a29),
    ("fig6-list-s2", 0xccb5bf8e0b4b5303),
    ("raytrace-s4", 0xb2cd03ce39bfee91),
    ("livermore-k1-s4", 0x009232c97cd297f9),
    ("fig6-list-s4", 0xb7aa2851fabdbfec),
    ("raytrace-s8", 0xf9c17216758cc46c),
    ("livermore-k1-s8", 0x0f812cd0cc876409),
    ("fig6-list-s8", 0xc9da0b4551933ec4),
];

/// Seeded inputs of the kernel pass.
fn inputs(seed: u64) -> (RayTraceParams, ListShape) {
    let mut rng = SplitMix64::new(seed);
    let ray = RayTraceParams {
        width: RAY_EDGE,
        height: RAY_EDGE,
        spheres: RAY_SPHERES,
        seed: rng.next_u64(),
        shadows: true,
    };
    let break_at = LIST_NODES - 1 - rng.below(BREAK_WINDOW) as usize;
    (ray, ListShape { nodes: LIST_NODES, break_at: Some(break_at) })
}

/// What a point's final architectural state must hold.
enum Expect {
    Image(Arc<Vec<i64>>),
    K1(Arc<Vec<f64>>),
    List { sequential: bool, iterations: usize, tmp: Option<f64> },
}

struct Point {
    name: &'static str,
    config: Config,
    program: Arc<PredecodedProgram>,
    expect: Expect,
}

/// Generates, assembles and predecodes every point's program.
fn build_points(
    ray: &RayTraceParams,
    list: ListShape,
    t: &mut Tracer,
) -> Result<Vec<Point>, String> {
    let predecode = |t: &mut Tracer, detail: &'static str, p: &Program| {
        t.span("sim.predecode", detail, || PredecodedProgram::shared(p))
            .map_err(|e| format!("{detail}: predecode failed: {e}"))
    };
    let assemble = |t: &mut Tracer, detail: &'static str, src: &str| {
        t.span("asm.assemble", detail, || hirata_asm::assemble(src))
            .map_err(|e| format!("{detail}: does not assemble: {e}"))
    };

    let ray_prog = t.span("workloads.gen", "raytrace", || raytrace::raytrace_program(ray));
    let ray_prog = predecode(t, "raytrace", &ray_prog)?;
    let seq_src = t.span("workloads.gen", "fig6-list", || linked_list::sequential_source(list));
    let eager_src = t.span("workloads.gen", "fig6-list", || linked_list::eager_source(list));
    let seq_prog = assemble(t, "fig6-list", &seq_src)?;
    let eager_prog = assemble(t, "fig6-list", &eager_src)?;
    let seq_prog = predecode(t, "fig6-list", &seq_prog)?;
    let eager_prog = predecode(t, "fig6-list", &eager_prog)?;

    let image = Arc::new(raytrace::reference_image(ray));
    let x = Arc::new(kernel1_reference(K1_N));
    let (iterations, tmp) = linked_list::reference(list);

    let mut points = Vec::with_capacity(POINTS.len());
    let mut names = POINTS.iter();
    for slots in [1usize, 2, 4, 8] {
        let config = if slots == 1 { Config::base_risc() } else { Config::multithreaded(slots) };
        let strategy =
            if slots == 1 { Strategy::None } else { Strategy::ReservationB { threads: slots } };
        let k1 = t.span("workloads.gen", "livermore-k1", || kernel1_program(K1_N, strategy));
        let k1 = predecode(t, "livermore-k1", &k1)?;
        let list_prog = if slots == 1 { &seq_prog } else { &eager_prog };
        for (program, expect) in [
            (Arc::clone(&ray_prog), Expect::Image(Arc::clone(&image))),
            (k1, Expect::K1(Arc::clone(&x))),
            (Arc::clone(list_prog), Expect::List { sequential: slots == 1, iterations, tmp }),
        ] {
            let name = names.next().expect("twelve points");
            points.push(Point { name, config: config.clone(), program, expect });
        }
    }
    Ok(points)
}

/// The digested part of a point's statistics: the fields a pure
/// simulator-speed change must leave identical.
fn stats_digest(s: &RunStats) -> u64 {
    let text = format!(
        "cycles={} instructions={} per_slot={:?} fu_invocations={:?} fu_busy={:?} \
         stalls={:?} context_switches={} threads_killed={} rotations={}",
        s.cycles,
        s.instructions,
        s.per_slot_issued,
        s.fu_invocations,
        s.fu_busy,
        s.stalls.counts(),
        s.context_switches,
        s.threads_killed,
        s.rotations
    );
    fnv1a(text.as_bytes())
}

fn check(point: &Point, m: &Machine) -> Result<(), String> {
    let mem = m.memory();
    let bad = |what: &str| format!("{}: {what}", point.name);
    match &point.expect {
        Expect::Image(image) => {
            for (p, &want) in image.iter().enumerate() {
                let got = mem.read_i64(IMAGE_BASE + p as u64).map_err(|e| bad(&e.to_string()))?;
                if got != want {
                    return Err(bad(&format!("pixel {p} is {got}, expected {want}")));
                }
            }
        }
        Expect::K1(x) => {
            for (k, &want) in x.iter().enumerate() {
                let got =
                    mem.read_f64(X_BASE as u64 + k as u64).map_err(|e| bad(&e.to_string()))?;
                if got.to_bits() != want.to_bits() {
                    return Err(bad(&format!("x[{k}] is {got}, expected {want}")));
                }
            }
        }
        Expect::List { sequential, iterations, tmp } => {
            if *sequential {
                let count =
                    mem.read_i64(linked_list::COUNT_ADDR).map_err(|e| bad(&e.to_string()))?;
                if count != *iterations as i64 {
                    return Err(bad(&format!("{count} iterations, expected {iterations}")));
                }
            }
            if let Some(want) = tmp {
                let got =
                    mem.read_f64(linked_list::RESULT_ADDR).map_err(|e| bad(&e.to_string()))?;
                if got.to_bits() != want.to_bits() {
                    return Err(bad(&format!("tmp is {got}, expected {want}")));
                }
            }
        }
    }
    Ok(())
}

/// One pass: builds and runs every point. Returns the pass's wall time
/// and the finished machines (checked after the clock stops).
fn pass(points: &[Point], t: &mut Tracer) -> (f64, Vec<Result<Machine, String>>) {
    let mut machines = Vec::with_capacity(points.len());
    let start = Instant::now();
    for p in points {
        machines.push(guarded(|| {
            let fault = |e: MachineError| format!("{}: {e}", p.name);
            let mut m = t
                .span("sim.machine.new", p.name, || {
                    Machine::from_predecoded(p.config.clone(), Arc::clone(&p.program))
                })
                .map_err(fault)?;
            t.span("sim.machine.run", p.name, || m.run().map(|_| ())).map_err(fault)?;
            Ok(m)
        }));
    }
    (start.elapsed().as_secs_f64(), machines)
}

/// Runs the kernel workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (ray, list) = inputs(opts.seed);
    let mut t = Tracer::new(opts.traced);
    let mut timings = Timings::default();
    let mut reference = Reference::new(REFERENCE_THREADS);

    let mut points = Vec::new();
    let mut expected: Vec<(u64, RunStats)> = Vec::new();
    let mut failed = 0u64;
    for round in 0..opts.rounds {
        // Each set-up repetition rebuilds the programs; the round's
        // passes run the last build.
        t.set_on(opts.traced);
        for rep in 0..SETUP_REPS {
            t.set_op(SETUP_OP + (round * SETUP_REPS + rep) as u32);
            let start = Instant::now();
            points = build_points(&ray, list, &mut t)?;
            timings.setup(rep, start.elapsed().as_secs_f64());
        }

        if round == 0 {
            // Warm-up pass: untimed. Its statistics are what every
            // timed pass must repeat exactly, and at the default seed
            // they must also match the digests recorded when the
            // benchmark was defined.
            let (_, warm) = pass(&points, &mut Tracer::new(false));
            for (p, m) in points.iter().zip(warm) {
                let stats = m?.stats().clone();
                let golden = opts.golden.kernel.iter().find(|(name, _)| *name == p.name);
                let digest = match golden {
                    Some(&(_, digest)) if opts.seed == crate::DEFAULT_SEED => digest,
                    _ => stats_digest(&stats),
                };
                expected.push((digest, stats));
            }
        }

        for i in 0..opts.ops {
            if i % REFERENCE_EVERY == 0 {
                timings.time_reference(&mut reference);
            }
            let traced = opts.traced && op_is_traced(i);
            t.set_on(traced);
            t.set_op((round * opts.ops + i) as u32);
            let (secs, machines) = pass(&points, &mut t);
            timings.op(i, secs, traced);
            let verdict = guarded(|| {
                let mut instructions = 0;
                for ((p, m), (digest, _)) in points.iter().zip(machines).zip(&expected) {
                    let m = m?;
                    check(p, &m)?;
                    let got = stats_digest(m.stats());
                    if got != *digest {
                        return Err(format!(
                            "{}: RunStats digest {got:016x}, expected {digest:016x}",
                            p.name
                        ));
                    }
                    instructions += m.stats().instructions;
                }
                Ok(instructions)
            });
            match verdict {
                Ok(instructions) if round == 0 => timings.sim_instructions += instructions,
                Ok(_) => {}
                Err(e) => {
                    eprintln!("kernel round {round} op {i} failed: {e}");
                    failed += 1;
                }
            }
        }
    }
    timings.peak_heap_bytes = heap::peak_bytes();

    let attempted = (opts.rounds * opts.ops) as u64;
    let mut outcome =
        Outcome { attempted, failed, host_scale: timings.host_scale(), ..Outcome::default() };
    if !opts.traced {
        outcome.metrics = timings.end_to_end();
        return Ok(outcome);
    }

    let mut put = |k: String, v: f64| {
        outcome.metrics.insert(k, v);
    };
    put("sim.machine.run_ms".into(), t.median_per_op("sim.machine.run", None) / 1e6);
    put("sim.machine.new_us".into(), t.median_per_op("sim.machine.new", None) / 1e3);
    put("workloads.gen_ms".into(), t.median_per_op("workloads.gen", None) / 1e6);
    put("asm.assemble_us".into(), t.median_per_op("asm.assemble", None) / 1e3);
    put("sim.predecode_us".into(), t.median_per_op("sim.predecode", None) / 1e3);

    let mut stalls = [0u64; STALLS.len()];
    for (p, (_, stats)) in points.iter().zip(&expected) {
        let run_ns = t.median_per_op("sim.machine.run", Some(p.name));
        put(format!("sim.machine.ns_per_inst.{}", p.name), run_ns / stats.instructions as f64);
        put(format!("sim.machine.ns_per_cycle.{}", p.name), run_ns / stats.cycles as f64);
        put(format!("sim.cycles.{}", p.name), stats.cycles as f64);
        put(format!("sim.instructions.{}", p.name), stats.instructions as f64);
        for (total, reason) in stalls.iter_mut().zip(StallReason::ALL) {
            *total += stats.stalls.count(reason);
        }
    }
    for (name, total) in STALLS.iter().zip(stalls) {
        put(format!("sim.stall.{name}"), total as f64);
    }
    put("trace.overhead_pct".into(), timings.overhead_pct());

    let (attempted, failed) =
        crate::repro::probe(opts.golden.repro, &opts.work_dir, &mut t, &mut outcome.metrics)?;
    outcome.attempted += attempted;
    outcome.failed += failed;
    outcome.spans = Some(t.render());
    Ok(outcome)
}
