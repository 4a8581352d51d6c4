//! CPU time of this process and of the calling thread. The kernel
//! charges a task only for the time it ran, so CPU time the host steals
//! from the VM inflates these figures far less than it inflates wall
//! time.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration;
    // on 64-bit Linux its two fields match the C layout.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds every thread of this process has used so far.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used so far.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_work_shows_in_thread_and_process_time() {
        let (p0, t0) = (process_s(), thread_s());
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let (dp, dt) = (process_s() - p0, thread_s() - t0);
        assert!(dt > 0.005, "thread CPU {dt}");
        assert!(dp >= dt * 0.99, "process {dp} < thread {dt}");
    }
}
