//! What the benchmark reads from the host: process CPU time, peak memory and
//! page faults from `/proc`, a pure-CPU calibration loop that tells a
//! contended run from a quiet one, and a plain blocking loopback echo that
//! prices the kernel's share of a request round trip.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. Linux reports these
/// fields in `USER_HZ`, which is 100 on every supported architecture.
const USER_HZ: f64 = 100.0;

/// Counters of this process, all threads, since it started.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// User-mode CPU seconds.
    pub utime_s: f64,
    /// Kernel-mode CPU seconds.
    pub stime_s: f64,
    /// Page faults served without I/O.
    pub minor_faults: u64,
}

impl ProcStat {
    /// Reads `/proc/self/stat`; all zero where `/proc` is missing.
    pub fn now() -> ProcStat {
        let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
            return ProcStat::default();
        };
        // The command name (field 2) may contain spaces; fields are counted
        // from the closing parenthesis.
        let rest = text.rsplit_once(')').map_or("", |(_, rest)| rest);
        let field = |n: usize| -> f64 {
            rest.split_ascii_whitespace()
                .nth(n - 3)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0)
        };
        ProcStat {
            utime_s: field(14) / USER_HZ,
            stime_s: field(15) / USER_HZ,
            minor_faults: field(10) as u64,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.utime_s + self.stime_s
    }
}

/// CPU seconds used so far by the threads of this process that are still
/// alive, at scheduler (nanosecond) resolution from
/// `/proc/self/task/*/schedstat`. Differences are meaningful while no thread
/// exits in between; `ProcStat` counts exited threads too but only in 10 ms
/// ticks, and is the fallback where `schedstat` is missing.
pub fn live_threads_cpu_s() -> f64 {
    let from_schedstat = || -> Option<f64> {
        let mut total_ns = 0u64;
        for task in std::fs::read_dir("/proc/self/task").ok()? {
            let text = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            total_ns += text.split_ascii_whitespace().next()?.parse::<u64>().ok()?;
        }
        // A kernel that keeps the file but not the accounting reads 0.
        (total_ns > 0).then_some(total_ns as f64 / 1e9)
    };
    from_schedstat().unwrap_or_else(|| ProcStat::now().cpu_s())
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Processors the scheduler grants this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Times a fixed dependent-multiply chain: no memory traffic, no system
/// calls, so its duration moves only when the processor is shared or
/// throttled. Returns milliseconds (best of 3, each ~20 ms).
pub fn calibration_ms() -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..12_000_000u32 {
                x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17) ^ 0x5EED;
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Median round trip, in microseconds, of `rounds` blocking request/response
/// exchanges of the given sizes over one loopback TCP connection served by a
/// plain `std` echo thread: the host's floor for one closed-loop query.
pub fn loopback_rtt_us(request_len: usize, response_len: usize, rounds: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        conn.set_nodelay(true).expect("nodelay");
        let mut request = vec![0u8; request_len];
        let response = vec![b'x'; response_len];
        while conn.read_exact(&mut request).is_ok() {
            if conn.write_all(&response).is_err() {
                break;
            }
        }
    });
    let mut client = TcpStream::connect(addr).expect("connect loopback");
    client.set_nodelay(true).expect("nodelay");
    let request = vec![b'q'; request_len];
    let mut response = vec![0u8; response_len];
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        client.write_all(&request).expect("echo write");
        client.read_exact(&mut response).expect("echo read");
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(client);
    server.join().expect("echo thread");
    crate::stats::median(&mut samples)
}
