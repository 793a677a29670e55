//! The speed of the host, measured by a fixed probe.
//!
//! The benchmark runs on shared virtual machines whose speed drifts: on
//! a 2-vCPU VM the same four EN queries took 0.15 s in one minute and
//! 0.24 s five minutes later, with no steal time to show for it, because
//! the neighbours' load slows the shared cores and caches. CPU-bound
//! figures drift with it, by more than a regression bound. The probe is
//! a small graph computation that belongs to the benchmark, not to the
//! program: it builds a CSR bipartite graph, peels its (2,2)-core and
//! walks the core, as parse, index build and query do. Timed next to
//! the same queries and set-ups, a one-thread version of it kept their
//! time / probe time within ±6% over that drift, so the ratio stays
//! steady while both move. A change to the program cannot move the
//! probe.

/// Probe time on the reference host, ms. CPU-bound figures are
/// reported as if the host ran the probe in this time.
pub const PROBE_REF_MS: f64 = 50.0;

/// Probe passes timed per thread and measurement.
const PASSES: usize = 6;

/// Probe threads: one per core the workloads keep busy.
const THREADS: usize = 2;

// `Timespec` below is the 64-bit Linux layout of `struct timespec`.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the CPU clocks of 64-bit Linux");

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec that outlives the call,
    // and both clock ids are defined on Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time used by every thread of this process so far, s. Unlike
/// wall time it leaves out time the hypervisor gave the core to
/// another guest (steal).
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Flag that makes the benchmark binary run [`probe_ms`] and print the
/// result instead of running a workload.
pub const PROBE_FLAG: &str = "--probe";

/// One probe measurement, ms, taken in a child process (this binary
/// with [`PROBE_FLAG`]), so that the probe's memory and allocator state
/// never mix with the program's: `rss_peak_mb` and set-up see none of
/// it. The child is waited for.
pub fn measure() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .arg(PROBE_FLAG)
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("host probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(ms) if out.status.success() && ms > 0.0 => Ok(ms),
        _ => Err(format!("host probe failed: {}", out.status)),
    }
}

/// One probe measurement in this process, ms: [`PASSES`] times the
/// median CPU time of a pass, over [`THREADS`] threads that each run
/// [`PASSES`] passes at once. One disturbed pass does not move it. The
/// workloads keep both cores busy, and the two cores of a VM can run at
/// different speeds, so a probe on one thread can miss what slows the
/// other core.
pub fn probe_ms() -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    (0..PASSES)
                        .map(|_| {
                            let t0 = clock_s(CLOCK_THREAD_CPUTIME_ID);
                            std::hint::black_box(pass());
                            (clock_s(CLOCK_THREAD_CPUTIME_ID) - t0) * 1e3
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    PASSES as f64 * crate::stats::median(&times)
}

/// How much slower than the reference host a measured probe time says
/// this host was: divide a time by it, or multiply a rate, to report
/// the figure at reference speed.
pub fn slowdown(probe_ms: f64) -> f64 {
    probe_ms / PROBE_REF_MS
}

/// One pass: a seeded random bipartite graph of 4,000 + 20,000
/// vertices and 240,000 edges (skewed lower degrees), built into CSR
/// form, peeled to its (2,2)-core, then walked from one core vertex.
/// Returns the number of vertices reached.
fn pass() -> u64 {
    const NU: usize = 4_000;
    const NL: usize = 20_000;
    const M: usize = 240_000;
    let n = NU + NL;
    let mut s = 0x9e37_79b9_7f4a_7c15_u64;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(M);
    for _ in 0..M {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let u = ((s >> 8) % NU as u64) as u32;
        let r = (s >> 32) % (NL as u64 * NL as u64);
        let l = ((r as f64).sqrt() as u64 % NL as u64) as u32;
        edges.push((u, (NU as u32) + l));
    }
    let mut deg = vec![0u32; n];
    for &(u, l) in &edges {
        deg[u as usize] += 1;
        deg[l as usize] += 1;
    }
    let mut off = vec![0usize; n + 1];
    for v in 0..n {
        off[v + 1] = off[v] + deg[v] as usize;
    }
    let mut pos = off.clone();
    let mut adj = vec![0u32; 2 * M];
    for &(u, l) in &edges {
        adj[pos[u as usize]] = l;
        pos[u as usize] += 1;
        adj[pos[l as usize]] = u;
        pos[l as usize] += 1;
    }
    let mut alive = vec![true; n];
    let mut stack: Vec<u32> = (0..n as u32).filter(|&v| deg[v as usize] < 2).collect();
    while let Some(v) = stack.pop() {
        if !alive[v as usize] {
            continue;
        }
        alive[v as usize] = false;
        for &w in &adj[off[v as usize]..off[v as usize + 1]] {
            if alive[w as usize] {
                deg[w as usize] -= 1;
                if deg[w as usize] < 2 {
                    stack.push(w);
                }
            }
        }
    }
    let Some(start) = (0..n).find(|&v| alive[v]) else {
        return 0;
    };
    let mut seen = vec![false; n];
    seen[start] = true;
    stack.push(start as u32);
    let mut reached = 0;
    while let Some(v) = stack.pop() {
        reached += 1;
        for &w in &adj[off[v as usize]..off[v as usize + 1]] {
            if alive[w as usize] && !seen[w as usize] {
                seen[w as usize] = true;
                stack.push(w);
            }
        }
    }
    reached
}
