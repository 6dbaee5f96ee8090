//! Two clocks for every latency: the wall clock, and the CPU time the
//! whole process (client and server threads alike) has consumed.
//!
//! The end-to-end figures are CPU time. On a virtual host the hypervisor
//! deschedules the guest's CPUs for stretches of milliseconds (`steal` in
//! `/proc/stat`), and a wall-clock latency of a sub-millisecond action then
//! measures the neighbours as much as the program. The kernel keeps steal
//! out of task run time (paravirtual steal accounting), so the CPU clock
//! counts only the cycles the served path itself ran: request encode,
//! loopback send and receive, server decode, execution, encode, and the
//! client's decode. Waits — fsync, a descheduled thread — are not in it;
//! the wall figures are printed beside it for reference.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One latency on both clocks, microseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Lat {
    /// Process CPU time elapsed.
    pub cpu: f64,
    /// Wall time elapsed.
    pub wall: f64,
}

impl std::ops::Add for Lat {
    type Output = Lat;
    fn add(self, o: Lat) -> Lat {
        Lat {
            cpu: self.cpu + o.cpu,
            wall: self.wall + o.wall,
        }
    }
}

/// An instant on both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_ns: u64,
}

impl Stamp {
    /// Now, on both clocks.
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu_ns: process_cpu_ns(),
        }
    }

    /// From `self` to `later`; zero on either clock if `later` is earlier.
    pub fn until(self, later: Stamp) -> Lat {
        Lat {
            cpu: later.cpu_ns.saturating_sub(self.cpu_ns) as f64 / 1e3,
            wall: later.wall.saturating_duration_since(self.wall).as_nanos() as f64 / 1e3,
        }
    }

    /// From `self` to now.
    pub fn elapsed(self) -> Lat {
        self.until(Stamp::now())
    }
}

/// The CPU times of `v`.
pub fn cpu(v: &[Lat]) -> Vec<f64> {
    v.iter().map(|l| l.cpu).collect()
}

/// The wall times of `v`.
pub fn wall(v: &[Lat]) -> Vec<f64> {
    v.iter().map(|l| l.wall).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        let t = Stamp::now();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = t.elapsed();
        assert!(slept.wall >= 30_000.0);
        assert!(
            slept.cpu < 10_000.0,
            "sleeping used {} us of CPU",
            slept.cpu
        );
        let t = Stamp::now();
        let mut x = 0u64;
        while t.elapsed().cpu < 20_000.0 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spun = t.elapsed();
        assert!(spun.cpu >= 20_000.0 && spun.wall >= spun.cpu * 0.5);
    }

    #[test]
    fn until_never_runs_backwards() {
        let later = Stamp::now();
        let earlier = Stamp {
            wall: later.wall,
            cpu_ns: later.cpu_ns + 5,
        };
        assert_eq!(earlier.until(later).cpu, 0.0);
    }
}
