//! The few things the benchmark asks the operating system directly:
//! process CPU time, resident memory, and which CPUs a thread may use.
//! `clock_gettime` and `sched_{get,set}affinity` are bound by hand, as
//! `optrep-net` binds `poll(2)`: the symbols are in the libc every std
//! binary already links.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Words in the CPU mask handed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    #[cfg(target_env = "gnu")]
    fn mallopt(param: i32, value: i32) -> i32;
}

/// CPU time (user + system, every thread) this process has used. The
/// same quantity as utime+stime in `/proc/self/stat`, at nanosecond
/// instead of clock-tick resolution.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` is missing.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Current resident set (`VmRSS`) in bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:").map_or(0, |kib| kib * 1024)
}

/// glibc `mallopt` parameters.
#[cfg(target_env = "gnu")]
const M_MMAP_THRESHOLD: i32 = -3;
#[cfg(target_env = "gnu")]
const M_ARENA_MAX: i32 = -8;

/// Makes the allocator's footprint repeat, so that `peak_rss_mb` measures
/// the program and not the allocator's mood. Call once, before any thread
/// exists. With glibc's defaults each of a run's ~40 short-lived daemon
/// threads gets an arena of its own, which arena a new thread inherits
/// depends on a `trylock` race, and the threshold above which a buffer is
/// mapped slides with the order of frees; the peak of `dense_pull` then
/// moved by ±10 % between seeds (166–207 MiB). With two arenas
/// `cold_join` still read 45 or 48 MiB by whether a fresh sink's worker
/// landed in the arena the stopped sink's store was freed into. One arena
/// and a threshold fixed at 256 KiB bring every workload under 1 %
/// (README, "Host noise"). A no-op on another libc.
pub fn steady_allocator() {
    // SAFETY: `mallopt` takes two integers and is called before the
    // process has a second thread.
    #[cfg(target_env = "gnu")]
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 256 * 1024);
    }
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the mask is writable and its size in bytes is passed along.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and threads it spawns afterwards) to
/// `cpus`. Best effort: returns whether the kernel accepted it.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: the mask is readable and its size in bytes is passed along;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_memory_reads_back() {
        let before = process_cpu();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu() > before);
        assert!(peak_rss_mib() > 0.0);
        assert!(rss_bytes() > 0);
    }

    #[test]
    fn pinning_to_the_allowed_set_is_accepted() {
        let allowed = allowed_cpus();
        assert!(!allowed.is_empty());
        assert!(pin_current_thread(&allowed));
        assert_eq!(allowed_cpus(), allowed);
    }
}
