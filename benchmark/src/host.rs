//! What the harness asks the host: CPU time, resident-set high-water
//! mark, core count, and the provenance stamped on every result.

use std::process::Command;

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s followed by fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    // std already links libc; declaring the symbols avoids a crates.io
    // dependency the offline container cannot resolve.
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn malloc_trim(pad: usize) -> i32;
}

/// CPU seconds (user + system) this process — all threads, including
/// exited ones — has consumed so far: `getrusage(RUSAGE_SELF)`; 0 if the
/// call fails.
pub fn cpu_seconds() -> f64 {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage`-sized buffer
    // (14 longs after two timevals) and RUSAGE_SELF (0) is a valid
    // `who`; getrusage writes only inside it.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc != 0 {
        return 0.0;
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    secs(ru.utime) + secs(ru.stime)
}

/// Seconds the hypervisor has kept this machine's virtual CPUs waiting
/// for a physical one so far (`steal`, the eighth counter of the `cpu`
/// line of `/proc/stat`, in 10 ms ticks); 0 where there is no such file.
/// Wall time a repetition spent stolen is the host's, not the program's.
pub fn steal_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let ticks = std::fs::read_to_string("/proc/stat").ok().and_then(|text| {
        let mut cpu = text.lines().next()?.split_whitespace();
        cpu.next().filter(|&label| label == "cpu")?;
        cpu.nth(7)?.parse::<u64>().ok()
    });
    ticks.map_or(0.0, |t| t as f64 / USER_HZ)
}

/// Reset the resident-set high-water mark to the current RSS (Linux:
/// write `5` to `/proc/self/clear_refs`). Where the kernel refuses,
/// [`peak_rss_mb`] keeps reporting the process-lifetime peak: still a
/// number, no longer the repetition's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hand the allocator's free memory back to the kernel (glibc only; a
/// no-op elsewhere), so a workload that follows a bigger one in the same
/// process starts from the resident set a fresh process would have
/// instead of inheriting its predecessor's retained heap.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time from any thread; no other thread is running here.
    unsafe {
        malloc_trim(0);
    }
}

/// `VmHWM` in MB (10⁶ bytes), if the platform reports one.
pub fn peak_rss_mb() -> Option<f64> {
    hypatia_util::mem::peak_rss_bytes().map(|b| b as f64 / 1e6)
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string()).filter(|l| !l.is_empty())
}

/// Short commit hash of the tree being measured (`unknown` outside a git
/// checkout — the acceptance driver's copy is not one).
pub fn commit() -> String {
    first_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the toolchain on `PATH`.
pub fn rustc() -> String {
    first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let spent = cpu_seconds() - before;
        assert!(spent > 0.0 && spent < 30.0, "{spent}");
    }

    #[test]
    fn host_facts_are_sane() {
        let steal = steal_seconds();
        assert!(steal >= 0.0 && steal_seconds() >= steal, "a counter");
        assert!(cores() >= 1);
        assert!(!rustc().is_empty());
        assert!(!commit().is_empty());
    }
}
