//! `seqdl-perfbench serve`: a small, long-lived process that starts each op's
//! child process for `perfbench/run.py` and reports its exit status, wall
//! time, peak RSS and CPU time.
//!
//! A child's `ru_maxrss` includes the resident set of the process it was
//! forked from, so `run.py` (a Python process holding the reference
//! answers) cannot start the ops itself without inflating every reading.  This
//! process stays small.
//!
//! Protocol, one line per op on stdin: `OUT_PATH \t TIMEOUT_MS \t ARGV…`
//! (tab-separated).  The child's stdout goes to `OUT_PATH`, its stderr is
//! discarded.  Reply on stdout: `EXIT_CODE WALL_NS MAXRSS_KIB CPU_NS`, where a
//! child killed by a signal (including the timeout's SIGKILL) reports
//! `128 + signal`.

use crate::text;
use std::io::{BufRead, Write};
use std::process::{Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the launcher's system-call structs follow 64-bit Linux");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

const P_PID: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;

extern "C" {
    fn waitid(idtype: i32, id: u32, info: *mut [u64; 16], options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, signal: i32) -> i32;
}

pub fn serve() -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = line.map_err(text)?;
        let fields: Vec<&str> = line.split('\t').collect();
        let [out_path, timeout_ms, program, args @ ..] = fields.as_slice() else {
            return Err(format!("malformed request `{line}`"));
        };
        let timeout = Duration::from_millis(timeout_ms.parse().map_err(|_| "bad timeout")?);
        let reply = run_one(out_path, timeout, program, args)?;
        writeln!(stdout, "{reply}")
            .and_then(|()| stdout.flush())
            .map_err(text)?;
    }
    Ok(())
}

fn run_one(
    out_path: &str,
    timeout: Duration,
    program: &str,
    args: &[&str],
) -> Result<String, String> {
    let out = std::fs::File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {program}: {e}"))?;
    let pid = child.id();
    // `Some(pid)` while the child may still be killed: the watchdog kills it
    // under this lock, and the child is reaped only after the waiter has
    // cleared it, so a pid is never signalled after it could be reused.
    let running = Mutex::new(Some(pid));
    let finished = Condvar::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let guard = running.lock().expect("watchdog lock poisoned");
            let (guard, _) = finished
                .wait_timeout_while(guard, timeout, |p| p.is_some())
                .expect("watchdog lock poisoned");
            if let Some(pid) = *guard {
                // SAFETY: `kill` takes plain integers; the child is not yet
                // reaped (see `running`), so `pid` still names it.
                unsafe { kill(pid as i32, SIGKILL) };
            }
        });
        let mut info = [0u64; 16];
        // SAFETY: `info` is a 128-byte buffer, the size of `siginfo_t`;
        // WNOWAIT leaves the exited child unreaped.
        unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) };
        *running.lock().expect("watchdog lock poisoned") = None;
        finished.notify_all();
    });
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are valid for writes and `usage` has the
    // layout of `struct rusage` on 64-bit Linux.
    let reaped = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
    let wall = start.elapsed();
    drop(child);
    if reaped != pid as i32 {
        return Err(format!("wait4 failed for pid {pid}"));
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    let cpu_us = (usage.utime[0] + usage.stime[0]) * 1_000_000 + usage.utime[1] + usage.stime[1];
    Ok(format!(
        "{code} {} {} {}",
        wall.as_nanos(),
        usage.maxrss,
        cpu_us * 1000
    ))
}
