//! One `usi serve` child process: started with an ephemeral port,
//! ready once `/healthz` answers 200, stopped by closing its stdin (and
//! killed if it does not exit, or if the benchmark fails first).

use crate::client::Conn;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a child may take to print its listening address (a primary
/// replays its whole WAL first).
const START_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a child may take to exit after stdin EOF before it is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(20);
/// Stderr lines kept for error reports.
const KEEP_LINES: usize = 20;

/// A running `usi serve`.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stderr: Option<JoinHandle<()>>,
    last_lines: Arc<Mutex<Vec<String>>>,
    /// The HTTP address.
    pub addr: SocketAddr,
    /// The replication listener, for a primary started with `--repl-listen`.
    pub repl_addr: Option<SocketAddr>,
    /// Spawn to the first `/healthz` 200.
    pub ready: Duration,
}

/// What the stderr reader reports back while the child starts.
enum Announce {
    Http(SocketAddr),
    Repl(SocketAddr),
}

fn parse_addr(line: &str, marker: &str) -> Option<SocketAddr> {
    let rest = &line[line.find(marker)? + marker.len()..];
    rest.split_whitespace().next()?.trim_end_matches(['/', ',', ';']).parse().ok()
}

impl Server {
    /// Spawns `bin serve <args>` and waits until it answers `/healthz`.
    pub fn start(bin: &Path, args: &[String]) -> Result<Server, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stderr = child.stderr.take().expect("stderr is piped");
        let last_lines = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        let lines = Arc::clone(&last_lines);
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = parse_addr(&line, " on http://") {
                    let _ = tx.send(Announce::Http(addr));
                } else if let Some(addr) = parse_addr(&line, "to followers on ") {
                    let _ = tx.send(Announce::Repl(addr));
                }
                let mut kept = lines.lock().expect("stderr line buffer poisoned");
                if kept.len() == KEEP_LINES {
                    kept.remove(0);
                }
                kept.push(line);
            }
        });
        let mut server = Server {
            child,
            stdin,
            stderr: Some(reader),
            last_lines,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            repl_addr: None,
            ready: Duration::ZERO,
        };
        let want_repl = args.iter().any(|a| a == "--repl-listen");
        let deadline = spawned + START_TIMEOUT;
        let mut http = None;
        while http.is_none() || (want_repl && server.repl_addr.is_none()) {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(Announce::Http(addr)) => http = Some(addr),
                Ok(Announce::Repl(addr)) => server.repl_addr = Some(addr),
                Err(_) => return Err(server.failure("did not announce its address")),
            }
        }
        server.addr = http.expect("loop exits once announced");
        let mut conn = Conn::new(server.addr);
        loop {
            match conn.request("GET", "/healthz", b"") {
                Ok(reply) if reply.status == 200 => break,
                _ if Instant::now() > deadline => {
                    return Err(server.failure("never answered /healthz"));
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        server.ready = spawned.elapsed();
        Ok(server)
    }

    fn failure(&mut self, what: &str) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        let lines = self.last_lines.lock().expect("stderr line buffer poisoned").join("\n  ");
        format!("usi serve {what}; its stderr ends:\n  {lines}")
    }

    /// The child's peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Closes stdin (the server's shutdown signal) and waits for the
    /// exit, killing the process if it lingers.
    pub fn stop(mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.flush();
        }
        let deadline = Instant::now() + STOP_TIMEOUT;
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break false;
                }
            }
        };
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        if clean {
            Ok(())
        } else {
            let lines = self.last_lines.lock().expect("stderr line buffer poisoned").join("\n  ");
            Err(format!("usi serve did not shut down cleanly; its stderr ends:\n  {lines}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // error paths: never leave a child behind
        if self.stdin.is_some() || self.stderr.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(reader) = self.stderr.take() {
                let _ = reader.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_announced_addresses() {
        let line =
            "serving 4 doc(s) on http://127.0.0.1:40123 with 4 worker(s) as standalone; stdin";
        assert_eq!(parse_addr(line, " on http://"), Some("127.0.0.1:40123".parse().unwrap()));
        let line = "replication: shipping WALs to followers on 127.0.0.1:5555";
        assert_eq!(parse_addr(line, "to followers on "), Some("127.0.0.1:5555".parse().unwrap()));
        assert_eq!(parse_addr("loaded hum: n = 5", " on http://"), None);
    }
}
