//! A sampling profiler for hosts without a hardware PMU or `perf`: it
//! runs one workload for a number of seconds under `setitimer`'s
//! profiling timer and records the instruction address each `SIGPROF`
//! interrupts.
//!
//! ```text
//! sample_profile <warm|cold|kernel|point:<key>> <seconds> <out-file>
//! ```
//!
//! - `warm`: resubmissions of eight programs the daemon has answered
//!   before, so each is a memo hit answered from the store;
//! - `cold`: submissions of programs the daemon must assemble and
//!   simulate (the store's byte budget evicts each program's entries
//!   before it comes round again);
//! - `kernel`: the perf gate's twelve grid points, simulated directly;
//! - `point:<key>`: one of them, or one of Table 3's hybrid shapes,
//!   alone (keys as `throughput_check` prints them, e.g.
//!   `point:raytrace/s1` or `point:raytrace/d2s4`).
//!
//! Both submission workloads run an in-process daemon, so the profile
//! holds the client and the daemon alike. The timer counts the
//! process's CPU time on every thread; the kernel's tick bounds it to
//! about 250 samples per CPU-second on a 250 Hz kernel.
//!
//! The handler stores each address in a fixed array of atomics, so it
//! neither allocates nor locks. At exit the addresses are written to
//! `<out-file>` one per line in hex, less the executable's load base
//! from `/proc/self/maps`, after a header that names the executable and
//! gives libc's address range and load base on the same origin.
//! `scripts/profile_report.sh` turns the file into flat profiles.
//!
//! Build with line tables, so the report can name lines:
//! `CARGO_PROFILE_RELEASE_DEBUG=2 cargo build --release -p hirata-bench
//! --example sample_profile`. x86_64 Linux only: the handler reads the
//! interrupted instruction pointer from that platform's `ucontext_t`.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::ffi::c_void;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// Most samples kept; later ones are counted but dropped.
    const CAPACITY: usize = 1 << 18;

    static SAMPLES: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Offset of `uc_mcontext.gregs[REG_RIP]` in x86_64 Linux's
    /// `ucontext_t`: `uc_flags`, `uc_link` and the 24-byte `uc_stack`,
    /// then sixteen general registers before RIP.
    const RIP_OFFSET: usize = 8 + 8 + 24 + 16 * 8;

    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    /// glibc's `struct sigaction` on x86_64.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    extern "C" {
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
        fn sigaction(signal: i32, action: *const SigAction, old: *mut SigAction) -> i32;
    }

    extern "C" fn on_sigprof(_signal: i32, _info: *mut c_void, context: *mut c_void) {
        // SAFETY: the kernel passes a valid `ucontext_t` to an
        // `SA_SIGINFO` handler, and RIP lies inside it.
        let rip = unsafe { context.cast::<u8>().add(RIP_OFFSET).cast::<u64>().read_unaligned() };
        let at = TAKEN.fetch_add(1, Ordering::Relaxed);
        if at < CAPACITY {
            SAMPLES[at].store(rip, Ordering::Relaxed);
        }
    }

    fn timer(usec: i64) {
        let every =
            Itimerval { interval: Timeval { sec: 0, usec }, value: Timeval { sec: 0, usec } };
        // SAFETY: both pointers are valid for the call.
        let failed = unsafe { setitimer(ITIMER_PROF, &every, std::ptr::null_mut()) } != 0;
        assert!(!failed, "setitimer failed");
    }

    /// Installs the handler and starts the timer at 1 kHz of CPU time;
    /// the kernel's tick may make it coarser.
    pub fn start() {
        let action = SigAction {
            handler: on_sigprof as extern "C" fn(i32, *mut c_void, *mut c_void) as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: the action is valid for the call, and the handler only
        // touches atomics.
        let failed = unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) } != 0;
        assert!(!failed, "sigaction failed");
        timer(1000);
    }

    /// Stops the timer and returns the samples taken and how many of
    /// them were dropped past the capacity. The samples are statistics
    /// and publish nothing else, so every access is `Relaxed`; a slot
    /// whose handler had not stored its address when the timer stopped
    /// still reads 0, and is left out.
    pub fn stop() -> (Vec<u64>, usize) {
        timer(0);
        let taken = TAKEN.load(Ordering::Relaxed);
        let kept = taken.min(CAPACITY);
        let samples = SAMPLES[..kept].iter().map(|s| s.load(Ordering::Relaxed));
        (samples.filter(|&address| address != 0).collect(), taken - kept)
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sampler {
    pub fn start() {
        eprintln!("sample_profile runs on x86_64 Linux only");
        std::process::exit(2);
    }

    pub fn stop() -> (Vec<u64>, usize) {
        (Vec::new(), 0)
    }
}

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use hirata_serve::client::{shutdown, submit, Mode, SubmitRequest};
use hirata_serve::server::{ServeConfig, Server};
use hirata_sim::Machine;
use hirata_workloads::linked_list::{eager_source, sequential_source, ListShape};

/// A Figure 6 program: eager or sequential, `nodes` long.
fn list_program(eager: bool, nodes: usize) -> String {
    let shape = ListShape { nodes, break_at: None };
    if eager {
        eager_source(shape)
    } else {
        sequential_source(shape)
    }
}

fn request(program: String) -> SubmitRequest {
    SubmitRequest {
        name: "profiled.s".into(),
        program,
        slots: vec![1, 2, 4, 8],
        ls: vec![1, 2],
        mode: Mode::Pool,
        timeout_secs: None,
        trace: false,
    }
}

/// Runs `workload` for `seconds` with the sampler on; returns the
/// operations done and the failed ones.
fn run(workload: &str, seconds: u64) -> (u64, u64) {
    let store = std::env::temp_dir().join(format!("hirata-profile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let daemon = |budget| {
        let config = ServeConfig {
            http_workers: 2,
            cache_dir: Some(store.clone()),
            cache_budget: budget,
            trace_dir: store.join("traces"),
            quiet: true,
            ..ServeConfig::default()
        };
        Server::spawn(config).expect("daemon boots")
    };
    let deadline = |start: Instant| start + Duration::from_secs(seconds);
    let (mut ops, mut failed) = (0, 0);
    let mut count = |ok: bool| {
        ops += 1;
        failed += u64::from(!ok);
    };
    match workload {
        "warm" => {
            let (addr, handle) = daemon(None);
            let addr = addr.to_string();
            let requests: Vec<SubmitRequest> =
                (0..8).map(|i| request(list_program(i % 2 == 0, 60 + 10 * i))).collect();
            for req in &requests {
                submit(&addr, req, &mut |_, _| {}).expect("a cold submission");
            }
            sampler::start();
            let end = deadline(Instant::now());
            while Instant::now() < end {
                for req in &requests {
                    count(submit(&addr, req, &mut |_, _| {}).is_ok());
                }
            }
            shutdown(&addr).expect("shutdown");
            handle.join().expect("the daemon thread").expect("the daemon exits cleanly");
        }
        "cold" => {
            // 320 programs of 3-4 KB results each; the budget holds
            // about 60 of them, so each has left the store by the time
            // it comes round again.
            let (addr, handle) = daemon(Some(256 * 1024));
            let addr = addr.to_string();
            sampler::start();
            let end = deadline(Instant::now());
            let mut i = 0;
            while Instant::now() < end {
                let req = request(list_program(i % 2 == 0, 40 + (i / 2) % 160));
                count(submit(&addr, &req, &mut |_, _| {}).is_ok());
                i += 1;
            }
            shutdown(&addr).expect("shutdown");
            handle.join().expect("the daemon thread").expect("the daemon exits cleanly");
        }
        _ if workload == "kernel" || workload.starts_with("point:") => {
            let points = match workload.strip_prefix("point:") {
                Some(key) => hirata_bench::points(&[key]).unwrap_or_else(|e| {
                    eprintln!("sample_profile: {e}");
                    std::process::exit(2)
                }),
                None => hirata_bench::grid(),
            };
            sampler::start();
            let end = deadline(Instant::now());
            while Instant::now() < end {
                for point in &points {
                    let ran = Machine::new(point.config.clone(), &point.program)
                        .is_ok_and(|mut machine| machine.run().is_ok());
                    count(ran);
                }
            }
        }
        _ => usage(),
    }
    let _ = std::fs::remove_dir_all(&store);
    (ops, failed)
}

/// The path of the file whose mappings in `maps` `matches` picks, the
/// range those mappings span, and the file's load base.
fn mapping(maps: &str, matches: impl Fn(&str) -> bool) -> Option<(String, u64, u64, u64)> {
    let mut found: Option<(String, u64, u64, u64)> = None;
    for line in maps.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [range, _, offset, _, _, path] = fields[..] else { continue };
        if !matches(path) {
            continue;
        }
        let (lo, hi) = range.split_once('-')?;
        let (lo, hi) = (u64::from_str_radix(lo, 16).ok()?, u64::from_str_radix(hi, 16).ok()?);
        let offset = u64::from_str_radix(offset, 16).ok()?;
        let entry = found.get_or_insert((path.to_string(), lo, hi, lo - offset));
        entry.1 = entry.1.min(lo);
        entry.2 = entry.2.max(hi);
        if offset == 0 {
            entry.3 = lo;
        }
    }
    found
}

fn usage() -> ! {
    eprintln!("usage: sample_profile <warm|cold|kernel|point:<key>> <seconds> <out-file>");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [workload, seconds, out] = &args[..] else { usage() };
    let Ok(seconds) = seconds.parse::<u64>() else { usage() };

    let start = Instant::now();
    let (ops, failed) = run(workload, seconds);
    let (samples, dropped) = sampler::stop();

    let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
    let exe = std::env::current_exe().expect("the executable's path");
    let exe = exe.to_string_lossy();
    let (exe_path, _, _, base) = mapping(&maps, |path| path == exe).expect("the executable mapped");
    let libc =
        mapping(&maps, |path| path.rsplit('/').next().is_some_and(|f| f.starts_with("libc.so")));
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# sample_profile {workload}: {} samples ({dropped} dropped) over {:.1} s, {ops} ops, {failed} failed",
        samples.len(),
        start.elapsed().as_secs_f64()
    );
    let _ = writeln!(text, "exe {exe_path}");
    if let Some((path, lo, hi, libc_base)) = libc {
        let at = |a: u64| a.wrapping_sub(base);
        let _ = writeln!(text, "libc {path} {:x} {:x} {:x}", at(lo), at(hi), at(libc_base));
    }
    for address in samples {
        let _ = writeln!(text, "{:x}", address.wrapping_sub(base));
    }
    std::fs::write(out, text).expect("the profile written");
    eprintln!("{ops} ops ({failed} failed); profile in {out}");
}
