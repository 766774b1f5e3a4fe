//! The service side: a campaign-service daemon process over a result
//! cache (`inpg_campaign::serve::serve`, the loop `inpg serve` runs),
//! and the closed-loop client that fetches warm hits from it through
//! `submit::request`.

use inpg_campaign::protocol::Reply;
use inpg_campaign::submit::{self, AddrSource};
use inpg_campaign::{CellRecord, CellSpec, Request, ServiceStatus};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running campaign-service daemon process.
pub struct Daemon {
    child: Child,
    addr_file: PathBuf,
    pub addr: String,
}

impl Daemon {
    /// Starts `server serve <cache_dir> <addr_file>` (the harness's own
    /// daemon mode) and waits until it answers a ping. Returns the
    /// daemon and the seconds from spawn to that first reply.
    pub fn start(server: &Path, cache_dir: &Path, addr_file: &Path) -> io::Result<(Daemon, f64)> {
        let _ = std::fs::remove_file(addr_file);
        let start = Instant::now();
        let child = Command::new(server)
            .arg("serve")
            .arg(cache_dir)
            .arg(addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child,
            addr_file: addr_file.to_path_buf(),
            addr: String::new(),
        };
        let source = AddrSource::File(addr_file.to_path_buf());
        while start.elapsed() < Duration::from_secs(20) {
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "the daemon exited at start-up: {status}"
                )));
            }
            if let Ok(addr) = source.resolve() {
                if let Ok(Reply::Pong) = submit::request(&addr, &Request::Ping) {
                    let ready = start.elapsed().as_secs_f64();
                    daemon.addr = addr;
                    return Ok((daemon, ready));
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "the daemon never answered a ping",
        ))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn status(&self) -> io::Result<ServiceStatus> {
        submit::status(&AddrSource::Direct(self.addr.clone()))
    }

    /// Asks the daemon to drain and waits for the process to exit.
    pub fn stop(mut self) -> io::Result<()> {
        submit::shutdown(&AddrSource::File(self.addr_file.clone()))?;
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("the daemon exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After a clean `stop` the process has already been reaped and
        // both calls fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What a closed-loop client measured.
#[derive(Debug, Default)]
pub struct HitLoop {
    /// Round trip of every verified hit, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Requests made, hits or not.
    pub requests: u64,
    /// Why requests were not verified hits.
    pub failures: Vec<String>,
    /// Host seconds of the loop.
    pub elapsed_s: f64,
    /// Host seconds of each complete pass over every cell.
    pub pass_s: Vec<f64>,
    /// Σ simulated cycles of the records the hits delivered.
    pub delivered_cycles: u64,
}

impl HitLoop {
    /// Appends a later loop of the same client.
    pub fn extend(&mut self, later: HitLoop) {
        self.latencies_ms.extend(later.latencies_ms);
        self.requests += later.requests;
        self.failures.extend(later.failures);
        self.elapsed_s += later.elapsed_s;
        self.pass_s.extend(later.pass_s);
        self.delivered_cycles += later.delivered_cycles;
    }
}

/// Fetches the cells round-robin, one request at a time, until at
/// least `seconds` have passed and `min_requests` were made, always
/// ending on a complete pass. A request counts as a hit only when
/// `fetch` verifies it and its record equals `expected[i]`.
pub fn hit_loop(
    expected: &[CellRecord],
    seconds: f64,
    min_requests: u64,
    mut fetch: impl FnMut(usize) -> Result<CellRecord, String>,
) -> HitLoop {
    let mut out = HitLoop::default();
    let start = Instant::now();
    let mut pass_start = start;
    loop {
        for (i, want) in expected.iter().enumerate() {
            let t0 = Instant::now();
            let got = fetch(i);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            out.requests += 1;
            match got {
                Ok(record) if &record == want => {
                    out.latencies_ms.push(ms);
                    out.delivered_cycles += record.roi_cycles;
                }
                Ok(_) => out
                    .failures
                    .push(format!("cell {i}: record differs from the in-process one")),
                Err(why) => out.failures.push(format!("cell {i}: {why}")),
            }
        }
        let now = Instant::now();
        out.pass_s.push((now - pass_start).as_secs_f64());
        pass_start = now;
        if (now - start).as_secs_f64() >= seconds && out.requests >= min_requests {
            break;
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// `fetch` for [`hit_loop`] through the daemon: one `submit` per
/// request over a fresh connection, as `inpg submit` sends it. Only a
/// `Result` reply marked `cached` is a hit.
pub fn submit_fetch<'a>(
    addr: &'a str,
    cells: &'a [CellSpec],
) -> impl FnMut(usize) -> Result<CellRecord, String> + 'a {
    move |i| {
        let req = Request::Submit {
            config: cells[i].config.clone(),
            deadline_ms: None,
        };
        match submit::request(addr, &req) {
            Ok(Reply::Result {
                record,
                cached: true,
                ..
            }) => Ok(*record),
            Ok(Reply::Result { cached: false, .. }) => Err("served by a fresh simulation".into()),
            Ok(other) => Err(format!("reply {other:?}")),
            Err(e) => Err(format!("request failed: {e}")),
        }
    }
}
