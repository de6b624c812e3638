//! CPU placement of the benchmark's threads.
//!
//! Generator and server share one process and, on the small hosts this
//! runs on, very few cores. Left to the scheduler, which core a load thread
//! and the shard serving it land on differs from run to run, and closed-
//! loop `rps` over loopback then differs by a third between runs of the
//! same code. So the allowed CPUs are split in two halves: the main thread
//! — and every thread the deployment spawns from it, which inherit its mask
//! and size themselves from it (`ReactorConfig::default()`) — runs on the
//! second half, the load threads on the first. `rps` is therefore the
//! capacity of a server confined to half the host, and load generation
//! never takes cycles from the server.

use std::os::raw::{c_int, c_ulong};

/// Room for 1024 CPUs, the kernel's `cpu_set_t`.
type CpuSet = [u64; 16];

const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// The CPUs this thread may run on, ascending.
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable `cpu_set_t` of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confines the calling thread to `cpus`; an empty list leaves it alone.
pub fn pin(cpus: &[usize]) {
    if cpus.is_empty() {
        return;
    }
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a live `cpu_set_t` of the size passed. Failure
    // leaves the thread where it was, which only costs repeatability.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// Lets the calling thread's sleeps end within a microsecond of their
/// deadline instead of the default 50 µs, so open-loop pacing can sleep
/// almost to the due time and spin only briefly.
pub fn precise_sleeps() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches no
    // memory.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
}

/// The split of the host's CPUs between load generation and the server.
#[derive(Debug, Clone)]
pub struct Placement {
    pub generator: Vec<usize>,
    pub server: Vec<usize>,
}

impl Placement {
    /// First half to the generator, second half to the server; a single
    /// CPU is shared, unpinned.
    pub fn of(cpus: &[usize]) -> Placement {
        if cpus.len() < 2 {
            return Placement {
                generator: Vec::new(),
                server: Vec::new(),
            };
        }
        let (generator, server) = cpus.split_at(cpus.len() / 2);
        Placement {
            generator: generator.to_vec(),
            server: server.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_halves_the_cpus_and_shares_a_single_one() {
        let p = Placement::of(&[0, 1, 2, 3, 4]);
        assert_eq!((p.generator, p.server), (vec![0, 1], vec![2, 3, 4]));
        let p = Placement::of(&[3, 7]);
        assert_eq!((p.generator, p.server), (vec![3], vec![7]));
        let p = Placement::of(&[5]);
        assert!(p.generator.is_empty() && p.server.is_empty());
    }

    #[test]
    fn pinning_a_thread_narrows_what_it_is_allowed() {
        let cpus = allowed();
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        let seen = std::thread::spawn(move || {
            pin(&[last]);
            precise_sleeps();
            allowed()
        })
        .join()
        .unwrap();
        assert_eq!(seen, vec![last]);
        assert_eq!(allowed(), cpus, "pinning is per thread");
    }
}
