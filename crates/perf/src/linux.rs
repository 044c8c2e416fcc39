//! Real hardware counters via `perf_event_open(2)` (Linux, feature
//! `linux-perf`).
//!
//! The paper's collector uses perf_event in *counting* mode (§3.1); this
//! module provides the same primitive on real hardware: open a counter,
//! let it count, read the accumulated value — no sampling buffers, no
//! interrupts. [`SelfCounterSource`] measures the calling process, which
//! is enough to run the CPI² sampler against real silicon (per-cgroup
//! attachment uses the same syscall with `PERF_FLAG_PID_CGROUP`).
//!
//! Availability is environment-dependent (`perf_event_paranoid`,
//! seccomp, VMs without a PMU); every entry point reports errors instead
//! of panicking, and tests skip when counters cannot be opened.

use crate::backend::{CounterSource, TaskCounters};
use cpi2_sim::{CounterBlock, JobId, TaskId};
use cpi2_stats::Name;
use std::io;
use std::os::unix::io::RawFd;

const PERF_TYPE_HARDWARE: u32 = 0;
const PERF_COUNT_HW_CPU_CYCLES: u64 = 0;
const PERF_COUNT_HW_INSTRUCTIONS: u64 = 1;
const PERF_COUNT_HW_CACHE_MISSES: u64 = 3;

const PERF_EVENT_IOC_ENABLE: libc::c_ulong = 0x2400;
const PERF_EVENT_IOC_DISABLE: libc::c_ulong = 0x2401;
const PERF_EVENT_IOC_RESET: libc::c_ulong = 0x2403;

/// Minimal `perf_event_attr` for counting mode. The kernel accepts any
/// declared size as long as bytes beyond what it knows are zero; the
/// trailing pad keeps this robust across kernel versions.
#[repr(C)]
#[derive(Clone, Copy)]
struct PerfEventAttr {
    type_: u32,
    size: u32,
    config: u64,
    sample_period_or_freq: u64,
    sample_type: u64,
    read_format: u64,
    /// Bitfield: bit 0 = disabled, bit 5 = exclude_kernel,
    /// bit 6 = exclude_hv.
    flags: u64,
    _pad: [u64; 12],
}

/// One hardware counter in counting mode.
#[derive(Debug)]
pub struct PerfCounter {
    fd: RawFd,
}

impl PerfCounter {
    /// Opens a hardware counter of the given config for the calling
    /// process on any CPU, excluding kernel and hypervisor cycles.
    ///
    /// # Errors
    ///
    /// Propagates the syscall error (commonly `EACCES` under a high
    /// `perf_event_paranoid`, or `ENOENT` without a PMU).
    pub fn open_self(config: u64) -> io::Result<PerfCounter> {
        let attr = PerfEventAttr {
            type_: PERF_TYPE_HARDWARE,
            size: std::mem::size_of::<PerfEventAttr>() as u32,
            config,
            sample_period_or_freq: 0,
            sample_type: 0,
            read_format: 0,
            // disabled | exclude_kernel | exclude_hv.
            flags: 1 | (1 << 5) | (1 << 6),
            _pad: [0; 12],
        };
        // SAFETY: `attr` is a properly initialized, repr(C) attribute
        // block that outlives the call; the remaining arguments are plain
        // integers (pid 0 = self, cpu −1 = any, no group, no flags).
        let fd = unsafe {
            libc::syscall(
                libc::SYS_perf_event_open,
                &attr as *const PerfEventAttr,
                0 as libc::pid_t,
                -1 as libc::c_int,
                -1 as libc::c_int,
                0 as libc::c_ulong,
            )
        };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(PerfCounter { fd: fd as RawFd })
    }

    /// Opens the cycles counter for the calling process.
    pub fn cycles() -> io::Result<PerfCounter> {
        PerfCounter::open_self(PERF_COUNT_HW_CPU_CYCLES)
    }

    /// Opens the instructions-retired counter for the calling process.
    pub fn instructions() -> io::Result<PerfCounter> {
        PerfCounter::open_self(PERF_COUNT_HW_INSTRUCTIONS)
    }

    /// Opens the last-level cache-miss counter for the calling process.
    pub fn cache_misses() -> io::Result<PerfCounter> {
        PerfCounter::open_self(PERF_COUNT_HW_CACHE_MISSES)
    }

    fn ioctl(&self, request: libc::c_ulong) -> io::Result<()> {
        // SAFETY: `fd` is a live perf event fd owned by `self`; the
        // request codes take no argument.
        let r = unsafe { libc::ioctl(self.fd, request, 0) };
        if r < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Starts (or resumes) counting.
    pub fn enable(&self) -> io::Result<()> {
        self.ioctl(PERF_EVENT_IOC_ENABLE)
    }

    /// Stops counting (the value remains readable).
    pub fn disable(&self) -> io::Result<()> {
        self.ioctl(PERF_EVENT_IOC_DISABLE)
    }

    /// Resets the accumulated count to zero.
    pub fn reset(&self) -> io::Result<()> {
        self.ioctl(PERF_EVENT_IOC_RESET)
    }

    /// Reads the accumulated count.
    pub fn read(&self) -> io::Result<u64> {
        let mut value: u64 = 0;
        // SAFETY: reading exactly 8 bytes into a valid, aligned u64.
        let n = unsafe {
            libc::read(
                self.fd,
                &mut value as *mut u64 as *mut libc::c_void,
                std::mem::size_of::<u64>(),
            )
        };
        if n != std::mem::size_of::<u64>() as isize {
            return Err(io::Error::last_os_error());
        }
        Ok(value)
    }
}

impl Drop for PerfCounter {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this struct and closed exactly once.
        unsafe {
            libc::close(self.fd);
        }
    }
}

/// A [`CounterSource`] over the calling process's real hardware counters.
///
/// The whole process is modelled as one "task" (job 0, index 0); the CPI²
/// sampler and spec machinery run unchanged on top.
#[derive(Debug)]
pub struct SelfCounterSource {
    cycles: PerfCounter,
    instructions: PerfCounter,
    cache_misses: Option<PerfCounter>,
    platform: Name,
    /// The one task's job name, shared by every reading.
    job_name: Name,
}

impl SelfCounterSource {
    /// Opens cycle + instruction (and, best-effort, cache-miss) counters
    /// for this process and starts them.
    ///
    /// # Errors
    ///
    /// Fails when the environment does not permit opening counters.
    pub fn open() -> io::Result<SelfCounterSource> {
        let cycles = PerfCounter::cycles()?;
        let instructions = PerfCounter::instructions()?;
        let cache_misses = PerfCounter::cache_misses().ok();
        cycles.enable()?;
        instructions.enable()?;
        if let Some(c) = &cache_misses {
            let _ = c.enable();
        }
        Ok(SelfCounterSource {
            cycles,
            instructions,
            cache_misses,
            platform: "linux-perf-self".into(),
            job_name: "self".into(),
        })
    }

    fn cpu_time_us() -> f64 {
        // SAFETY: getrusage fills a plain struct for the calling process.
        let mut usage: libc::rusage = unsafe { std::mem::zeroed() };
        // SAFETY: `usage` is valid for writes of `rusage`.
        let r = unsafe { libc::getrusage(libc::RUSAGE_SELF, &mut usage) };
        if r != 0 {
            return 0.0;
        }
        let tv = |t: libc::timeval| t.tv_sec as f64 * 1e6 + t.tv_usec as f64;
        tv(usage.ru_utime) + tv(usage.ru_stime)
    }
}

impl CounterSource for SelfCounterSource {
    fn source_id(&self) -> u32 {
        0
    }

    fn platform_name(&self) -> &Name {
        &self.platform
    }

    fn counter_switch_us(&self) -> f64 {
        2.0
    }

    fn snapshot(&self) -> Vec<TaskCounters> {
        let cycles = self.cycles.read().unwrap_or(0) as f64;
        let instructions = self.instructions.read().unwrap_or(0) as f64;
        let misses = self
            .cache_misses
            .as_ref()
            .and_then(|c| c.read().ok())
            .unwrap_or(0) as f64;
        vec![TaskCounters {
            task: TaskId {
                job: JobId(0),
                index: 0,
            },
            job_name: Name::clone(&self.job_name),
            counters: CounterBlock {
                cycles,
                instructions,
                l2_misses: 0.0,
                l3_misses: misses,
                mem_lines: misses,
                context_switches: 0,
                cpu_time_us: Self::cpu_time_us(),
            },
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spins enough work that counters must move.
    fn burn() -> u64 {
        let mut acc = 1u64;
        for i in 1..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    }

    #[test]
    fn counting_mode_measures_real_cpi() {
        let Ok(source) = SelfCounterSource::open() else {
            eprintln!("perf_event unavailable in this environment; skipping");
            return;
        };
        let before = source.snapshot()[0].counters;
        std::hint::black_box(burn());
        let after = source.snapshot()[0].counters;
        let d = after.delta(&before);
        assert!(d.instructions > 1e6, "instructions {}", d.instructions);
        assert!(d.cycles > 0.0);
        let cpi = d.cpi().expect("instructions retired");
        assert!(
            (0.05..20.0).contains(&cpi),
            "implausible hardware CPI {cpi}"
        );
    }

    #[test]
    fn reset_zeroes_counter() {
        let Ok(c) = PerfCounter::cycles() else {
            eprintln!("perf_event unavailable in this environment; skipping");
            return;
        };
        c.enable().unwrap();
        std::hint::black_box(burn());
        c.disable().unwrap();
        assert!(c.read().unwrap() > 0);
        c.reset().unwrap();
        assert_eq!(c.read().unwrap(), 0);
    }
}
