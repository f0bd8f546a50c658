//! The process CPU clock every reported time is read from.
//!
//! On a shared host the benchmark's threads wait for a processor for
//! stretches other tenants decide, and a wall clock charges each wait to
//! whatever the program happened to be doing: a 25 µs cache hit can read
//! as a third of a millisecond. The process CPU clock
//! (`CLOCK_PROCESS_CPUTIME_ID`, summed over every thread, exited ones
//! included) counts only the time the process ran, and with paravirtual
//! steal-time accounting not the time the hypervisor gave its vCPU to
//! someone else. What is left, a processor running slower while other
//! tenants share its caches, is what the speed reference
//! ([`crate::calib`]) scales out.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time used so far by every thread of this process.
pub fn cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time since `start`, a reading of [`cpu`], in milliseconds.
pub fn ms_since(start: Duration) -> f64 {
    cpu().saturating_sub(start).as_secs_f64() * 1e3
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered processor it may run on. A wake-up then never
/// crosses processors, and what a wake-up costs no longer depends on
/// whether other tenants keep the second processor busy.
pub fn pin_to_one_cpu() -> Result<(), String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is writable for `size` bytes; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } < 0 {
        return Err("sched_getaffinity failed".into());
    }
    let (word, bit) = mask
        .iter()
        .enumerate()
        .find_map(|(w, m)| (*m != 0).then(|| (w, m.trailing_zeros())))
        .ok_or("no processor in the affinity mask")?;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is readable for `size` bytes; pid 0 is this thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } < 0 {
        return Err("sched_setaffinity failed".into());
    }
    Ok(())
}
