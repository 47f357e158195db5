//! The node under test as a separate process: start on a data directory,
//! time readiness, scrape `/metrics`, read peak memory, stop with SIGTERM.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Conn;

/// The node's flags; fixed for every workload and recorded in the manifest.
#[derive(Debug, Clone)]
pub struct NodeFlags {
    pub queue: usize,
    pub finality: u64,
    pub ingest_threads: usize,
    pub hot_capacity: usize,
}

impl NodeFlags {
    pub const BENCH: NodeFlags = NodeFlags {
        queue: 64,
        finality: 16,
        ingest_threads: 2,
        hot_capacity: 1024,
    };

    pub fn args(&self) -> Vec<String> {
        vec![
            "--queue".into(),
            self.queue.to_string(),
            "--finality".into(),
            self.finality.to_string(),
            "--ingest-threads".into(),
            self.ingest_threads.to_string(),
            "--hot-capacity".into(),
            self.hot_capacity.to_string(),
        ]
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// Longest a node may take to start or to drain before the run fails.
const NODE_DEADLINE: Duration = Duration::from_secs(60);

/// A running node process. Dropping it kills the process and waits for it.
pub struct NodeProc {
    child: Child,
    // Held open so the node never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub data_dir: PathBuf,
    /// Process start until the first `200 /healthz`.
    pub ready_s: f64,
}

impl NodeProc {
    pub fn start(bin: &Path, data_dir: &Path, flags: &NodeFlags) -> io::Result<NodeProc> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .args(flags.args())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("blockprov-node listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("node did not start: {line:?}")));
        };
        let mut node = NodeProc {
            child,
            _stdout: stdout,
            addr: addr.to_string(),
            data_dir: data_dir.to_path_buf(),
            ready_s: 0.0,
        };
        loop {
            if let Ok(reply) = Conn::open(&node.addr).and_then(|mut c| c.get("/healthz")) {
                if reply.status == 200 {
                    break;
                }
            }
            if started.elapsed() > NODE_DEADLINE {
                return Err(io::Error::other("node never answered 200 /healthz"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        node.ready_s = started.elapsed().as_secs_f64();
        Ok(node)
    }

    /// Peak resident set (`VmHWM`) so far, in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// Scrape `/metrics`.
    pub fn metrics(&self) -> io::Result<Metrics> {
        let reply = Conn::open(&self.addr)?.get("/metrics")?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "/metrics answered {}",
                reply.status
            )));
        }
        Ok(Metrics::parse(&reply.body))
    }

    /// SIGTERM, then wait for the drain and clean-shutdown snapshot.
    pub fn stop(mut self) -> io::Result<()> {
        // SAFETY: `kill` has no memory-safety preconditions; the pid is our
        // own child, which has not been reaped yet.
        unsafe { kill(self.child.id() as i32, SIGTERM) };
        let deadline = Instant::now() + NODE_DEADLINE;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("node exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("node did not drain after SIGTERM"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The numeric series of one `/metrics` page.
#[derive(Debug, Clone, Default)]
pub struct Metrics(std::collections::BTreeMap<String, f64>);

impl Metrics {
    fn parse(text: &str) -> Self {
        Self(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (name, value) = l.rsplit_once(' ')?;
                    Some((name.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Change of series `name` from `earlier` to `self`.
    pub fn delta(&self, earlier: &Metrics, name: &str) -> f64 {
        self.get(name) - earlier.get(name)
    }

    /// Mean of histogram `name` (microseconds) over the samples recorded
    /// between `earlier` and `self`; 0 when none were.
    pub fn mean_us_since(&self, earlier: &Metrics, name: &str) -> f64 {
        let n = self.delta(earlier, &format!("{name}_ns_count"));
        if n <= 0.0 {
            return 0.0;
        }
        self.delta(earlier, &format!("{name}_ns_sum")) / n / 1e3
    }
}
