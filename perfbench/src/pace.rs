//! Machine pace: how fast the host runs right now, relative to the
//! machine the benchmark was tuned on at its usual load.
//!
//! The benchmark's host is a shared 2-vCPU virtual machine whose speed
//! changes as other tenants load the host, both from one second to the
//! next (the same op reads 420 ms and 690 ms in one process) and over
//! minutes (an `offline` op's median read 405 ms and 830 ms half an
//! hour apart), with thread CPU time equal to wall time. No averaging
//! inside a run removes a drift that outlasts the run. So the untraced
//! run times a fixed reference kernel, benchmark code that no change to
//! the program touches, after set-up and after every op, and divides
//! each op's time by the pace read on either side of it. A change that
//! makes the program faster or slower moves the paced timing by the
//! same share; host drift moves the kernel and the program alike and
//! largely cancels.
//!
//! The host's drift is not one number: flushed writes, float
//! arithmetic and cache-missing loads each speed up by their own share.
//! The kernel times one small part of each kind, and the pace is the
//! geometric mean of their slowdowns. In two sets of six 12 s runs of
//! each of the four workloads on six seeds, one set while the host's
//! speed drifted and one while it held, the quartile spread of op p50
//! and tail across runs was at most 7.6% paced this way, against 18.7%
//! unpaced. Each part keeps its working set within the private caches,
//! and parts whose speed depends on the process were left out: an
//! 8 MiB sort ran 1.5x slower in some processes than in others in the
//! same minute, and the median time of a part allocating 5 MiB of
//! small vectors ranged by up to 34% across a run's four processes;
//! with that part in, the worst spread was 14.2%.
//!
//! The kernel runs in a helper process of its own ([`serve`]), which
//! the measuring process asks for a reading over a pipe. Run inside the
//! measuring process, each part's speed depended on the heap and file
//! state the workload left behind (that allocation part read 2.5 ms
//! after `offline` ops and 4.0 ms after `serve-recover` ops in the same
//! minute), so a change to the program's memory use would have moved
//! the pace and hidden part of its own effect.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// One-line writes per reading, each flushed: system calls, as the file
/// journal makes them.
const LINES: usize = 5_000;

/// Floats updated per round, and rounds per reading: square roots,
/// divisions and multiply-adds from L1.
const FLOATS: usize = 8_192;
const ROUNDS: usize = 300;

/// Entries of the pointer-chase cycle (256 KiB), and steps along it per
/// reading: dependent loads that miss L1.
const CYCLE: usize = 1 << 16;
const STEPS: usize = 1 << 20;

/// Time (ms) of each part on the tuning machine at its usual load: a
/// 2-vCPU KVM guest on an Intel Xeon (Sapphire Rapids, family 6 model
/// 143), rustc 1.95 release build. Paced timings are in milliseconds at
/// this pace.
const REFERENCE_MS: [f64; 3] = [4.8, 5.5, 7.6];

/// The reference kernel, run by the helper process.
struct Kernel {
    floats: Vec<f64>,
    cycle: Vec<u32>,
    file: PathBuf,
    readings: u64,
}

fn timed(f: impl FnOnce() -> Result<(), String>) -> Result<f64, String> {
    let t0 = Instant::now();
    f()?;
    Ok(t0.elapsed().as_secs_f64() * 1e3)
}

/// xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Kernel {
    fn new(file: PathBuf) -> Kernel {
        Kernel {
            floats: Vec::with_capacity(FLOATS),
            cycle: Vec::with_capacity(CYCLE),
            file,
            readings: 0,
        }
    }

    /// The current slowdown against the reference pace: 1.0 at the
    /// reference, 1.3 when the kernel runs 30% slower. One reading can
    /// be skewed by a preemption; the metrics are medians over many ops,
    /// each paced by its own pair of readings.
    fn read(&mut self) -> Result<f64, String> {
        self.readings += 1;
        let seed = self.readings.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let write = timed(|| {
            let io = |e: std::io::Error| format!("pace file {:?}: {e}", self.file);
            let mut f = BufWriter::new(File::create(&self.file).map_err(io)?);
            for i in 0..LINES {
                writeln!(f, "{{\"i\":{i},\"k\":{}}}", seed ^ i as u64).map_err(io)?;
                f.flush().map_err(io)?;
            }
            Ok(())
        })?;
        let flops = timed(|| {
            let v = &mut self.floats;
            v.clear();
            v.extend((0..FLOATS).map(|i| 1.0 + i as f64 * 1e-3));
            for r in 0..ROUNDS {
                let d = 1.0 + 1e-9 * r as f64;
                for x in v.iter_mut() {
                    *x = (*x * 1.000_001 + 0.5).sqrt() / d + 0.25;
                }
            }
            black_box(&*v);
            Ok(())
        })?;
        let chase = timed(|| {
            // Sattolo's shuffle: one cycle through every entry.
            let c = &mut self.cycle;
            c.clear();
            c.extend(0..CYCLE as u32);
            let mut x = seed;
            for i in (1..CYCLE).rev() {
                c.swap(i, (next(&mut x) % i as u64) as usize);
            }
            let mut j = 0usize;
            for _ in 0..STEPS {
                j = c[j] as usize;
            }
            black_box(j);
            Ok(())
        })?;
        let log_sum = [write, flops, chase]
            .iter()
            .zip(REFERENCE_MS)
            .map(|(ms, r)| (ms / r).ln())
            .sum::<f64>();
        Ok((log_sum / REFERENCE_MS.len() as f64).exp())
    }
}

/// The helper process: one reading per line read from standard input,
/// printed as one line; returns at end of input. The kernel's scratch
/// file lives in `dir`.
pub fn serve(dir: &Path) -> Result<(), String> {
    let mut k = Kernel::new(dir.join("pace.tmp"));
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| format!("pace request: {e}"))?;
        writeln!(out, "{}", k.read()?)
            .and_then(|()| out.flush())
            .map_err(|e| format!("pace reply: {e}"))?;
    }
    Ok(())
}

/// A running helper process. Dropping it closes the helper's input and
/// waits for it to end.
pub struct Pace {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Pace {
    /// Start the helper: `helper` is the command that runs [`serve`].
    pub fn spawn(mut helper: Command) -> Result<Pace, String> {
        let mut child = helper
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn pace helper: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        Ok(Pace {
            child,
            stdin: Some(stdin),
            stdout: BufReader::new(stdout),
        })
    }

    /// One reading from the helper.
    pub fn read(&mut self) -> Result<f64, String> {
        let stdin = self.stdin.as_mut().ok_or("pace helper closed")?;
        writeln!(stdin)
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("pace helper: {e}"))?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("pace helper: {e}"))?;
        line.trim()
            .parse()
            .map_err(|_| format!("pace helper replied {line:?}"))
    }
}

impl Drop for Pace {
    fn drop(&mut self) {
        // End of input ends the helper after its current reading.
        self.stdin = None;
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_kernel_reading_is_positive_and_finite() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_build/perfbench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut k = Kernel::new(dir.join("pace.tmp"));
        let s = k.read().unwrap();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
