//! The socket layer: accepts TCP or Unix-socket connections and
//! speaks [`crate::protocol`] over them, one thread per connection.
//!
//! All verification semantics live in [`crate::Service`]; this module
//! only frames lines, counts connection-level telemetry, and turns a
//! `shutdown` request into a drained stop.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use vrm_obs::serve as names;
use vrm_obs::Counter;

use crate::protocol::{
    parse_request, render_error, render_progress, render_queued, render_result, render_status,
    Request,
};
use crate::service::{JobStatus, Service, SubmitOutcome};

/// Where a daemon listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7440`; bind to port `0` for an
    /// ephemeral port (the bound address is reported back).
    Tcp(String),
    /// A Unix-domain socket path. A stale socket file from a previous
    /// daemon is removed before binding.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A running accept loop; dropping the handle does *not* stop the
/// daemon — use [`stop`](ServerHandle::stop), or send the protocol
/// `shutdown` op.
pub struct ServerHandle {
    local: Endpoint,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    /// The actually-bound endpoint (the resolved port for `Tcp(..:0)`).
    pub fn local(&self) -> &Endpoint {
        &self.local
    }

    /// Asks the accept loop to exit and waits for it. Queued jobs are
    /// still drained by the service's workers.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.accept.join();
    }

    /// Blocks until the accept loop exits (a protocol `shutdown`).
    pub fn join(self) {
        let _ = self.accept.join();
    }
}

/// Binds the endpoint and spawns the accept loop over an already-
/// started service.
pub fn serve(svc: Arc<Service>, endpoint: &Endpoint) -> std::io::Result<ServerHandle> {
    let stop = Arc::new(AtomicBool::new(false));
    match endpoint {
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            let local = Endpoint::Tcp(listener.local_addr()?.to_string());
            listener.set_nonblocking(true)?;
            let accept = spawn_accept(svc, stop.clone(), move |stop_flag, svc| {
                accept_loop(&listener, stop_flag, svc, |stream, svc, stop| {
                    stream.set_nonblocking(false).ok();
                    let reader = BufReader::new(stream.try_clone()?);
                    handle_conn(&svc, &stop, reader, stream);
                    Ok(())
                })
            });
            Ok(ServerHandle {
                local,
                stop,
                accept,
            })
        }
        Endpoint::Unix(path) => {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            let listener = UnixListener::bind(path)?;
            let local = Endpoint::Unix(path.clone());
            listener.set_nonblocking(true)?;
            let cleanup = path.clone();
            let accept = spawn_accept(svc, stop.clone(), move |stop_flag, svc| {
                accept_loop(&listener, stop_flag, svc, |stream, svc, stop| {
                    stream.set_nonblocking(false).ok();
                    let reader = BufReader::new(stream.try_clone()?);
                    handle_conn(&svc, &stop, reader, stream);
                    Ok(())
                });
                let _ = std::fs::remove_file(&cleanup);
            });
            Ok(ServerHandle {
                local,
                stop,
                accept,
            })
        }
    }
}

fn spawn_accept<F>(svc: Arc<Service>, stop: Arc<AtomicBool>, f: F) -> JoinHandle<()>
where
    F: FnOnce(Arc<AtomicBool>, Arc<Service>) + Send + 'static,
{
    std::thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || f(stop, svc))
        .expect("spawn accept loop")
}

/// Generic nonblocking accept loop: polls the stop flag between
/// accepts so a protocol `shutdown` takes effect within one tick.
fn accept_loop<L, S, H>(listener: &L, stop: Arc<AtomicBool>, svc: Arc<Service>, handler: H)
where
    L: Accept<Stream = S>,
    S: Send + 'static,
    H: Fn(S, Arc<Service>, Arc<AtomicBool>) -> std::io::Result<()> + Send + Sync + Copy + 'static,
{
    while !stop.load(Ordering::SeqCst) {
        match listener.accept_stream() {
            Ok(stream) => {
                Counter::new(names::CONNECTIONS).add(1);
                let svc = Arc::clone(&svc);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || {
                        let _ = handler(stream, svc, stop);
                    })
                    .expect("spawn connection handler");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => break,
        }
    }
}

trait Accept {
    type Stream;
    fn accept_stream(&self) -> std::io::Result<Self::Stream>;
}

impl Accept for TcpListener {
    type Stream = TcpStream;
    fn accept_stream(&self) -> std::io::Result<TcpStream> {
        self.accept().map(|(s, _)| s)
    }
}

impl Accept for UnixListener {
    type Stream = UnixStream;
    fn accept_stream(&self) -> std::io::Result<UnixStream> {
        self.accept().map(|(s, _)| s)
    }
}

/// The longest request line a connection may send, newline excluded
/// (1 MiB; the largest litmus file in the corpus is under 1 KiB).
const MAX_LINE: usize = 1 << 20;

/// One connection: read request lines until EOF (or shutdown), write
/// response lines. Each line is read through a window one byte longer
/// than [`MAX_LINE`], so a client that never sends a newline costs at
/// most that much memory: a longer line gets one error reply, counted
/// as a bad request, and ends this connection.
fn handle_conn<R: BufRead, W: Write>(svc: &Service, stop: &AtomicBool, mut reader: R, mut out: W) {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let mut window = (&mut reader).take(MAX_LINE as u64 + 1);
        if !matches!(window.read_until(b'\n', &mut buf), Ok(n) if n > 0) {
            break;
        }
        if buf.ends_with(b"\n") {
            buf.pop();
            if buf.ends_with(b"\r") {
                buf.pop();
            }
        }
        if buf.len() > MAX_LINE {
            Counter::new(names::REQUESTS).add(1);
            Counter::new(names::BAD_REQUESTS).add(1);
            let detail = format!("request line longer than {MAX_LINE} bytes");
            let _ = write_line(&mut out, &render_error(&detail));
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        Counter::new(names::REQUESTS).add(1);
        let quit = match parse_request(line) {
            Ok(req) => dispatch(svc, stop, req, &mut out),
            Err(e) => {
                Counter::new(names::BAD_REQUESTS).add(1);
                write_line(&mut out, &render_error(&e))
            }
        };
        if quit.is_err() || stop.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Executes one request; `Err` means the connection is done (client
/// went away mid-write, or shutdown).
fn dispatch<W: Write>(
    svc: &Service,
    stop: &AtomicBool,
    req: Request,
    out: &mut W,
) -> std::io::Result<()> {
    match req {
        Request::Submit { spec, cfg, wait } => match svc.submit(spec, cfg) {
            Ok(SubmitOutcome::Cached { digest, result }) => {
                write_line(out, &render_result(digest, None, &result, true))
            }
            Ok(SubmitOutcome::Queued(id)) => {
                if wait {
                    let snap = svc.wait(id);
                    write_snapshot(out, snap)
                } else {
                    let snap = svc.poll(id).expect("job just submitted");
                    write_line(out, &render_queued(snap.digest, id))
                }
            }
            Err(e) => {
                Counter::new(names::BAD_REQUESTS).add(1);
                write_line(out, &render_error(&e))
            }
        },
        Request::Poll { job } => match svc.poll(job) {
            Some(snap) if snap.status == JobStatus::Done => write_snapshot(out, snap),
            Some(snap) => write_line(
                out,
                &render_progress(
                    snap.digest,
                    job,
                    snap.status,
                    Counter::new(names::STATES_EXPLORED).get(),
                ),
            ),
            None => {
                Counter::new(names::BAD_REQUESTS).add(1);
                write_line(out, &render_error(&format!("unknown job {job}")))
            }
        },
        Request::Watch { job } => loop {
            let Some(snap) = svc.poll(job) else {
                Counter::new(names::BAD_REQUESTS).add(1);
                return write_line(out, &render_error(&format!("unknown job {job}")));
            };
            if snap.status == JobStatus::Done {
                return write_snapshot(out, snap);
            }
            write_line(
                out,
                &render_progress(
                    snap.digest,
                    job,
                    snap.status,
                    Counter::new(names::STATES_EXPLORED).get(),
                ),
            )?;
            std::thread::sleep(Duration::from_millis(25));
        },
        Request::Status => {
            let (fast, slow) = svc.queue_depths();
            let (cache, checkpoints) = svc.cache_sizes();
            let counters: Vec<(&'static str, u64)> = names::ALL
                .iter()
                .map(|&n| (n, Counter::new(n).get()))
                .collect();
            write_line(
                out,
                &render_status(fast, slow, cache, checkpoints, &counters),
            )
        }
        Request::Shutdown => {
            svc.shutdown();
            stop.store(true, Ordering::SeqCst);
            let mut w = vrm_obs::json::ObjWriter::new();
            w.field_str("status", "ok")
                .field_str("detail", "shutting down");
            write_line(out, &w.finish())
        }
    }
}

fn write_snapshot<W: Write>(out: &mut W, snap: crate::service::JobSnapshot) -> std::io::Result<()> {
    match snap.result.as_ref().expect("done job has a result") {
        Ok(res) => write_line(out, &render_result(snap.digest, Some(snap.id), res, false)),
        Err(e) => {
            Counter::new(names::BAD_REQUESTS).add(1);
            write_line(out, &render_error(e))
        }
    }
}

fn write_line<W: Write>(out: &mut W, line: &str) -> std::io::Result<()> {
    if vrm_faults::poll(vrm_faults::Site::ServerFrame) == Some(vrm_faults::FaultKind::Disconnect) {
        // Chaos: flush half the frame without its newline and drop the
        // connection, so the client sees a torn reply and must
        // reconnect-and-resubmit (crate::client::RetryPolicy).
        Counter::new(names::FRAMES_CUT).add(1);
        let _ = out.write_all(&line.as_bytes()[..line.len() / 2]);
        let _ = out.flush();
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "injected frame cut",
        ));
    }
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_line_without_a_newline_is_refused_at_the_cap() {
        let svc = Service::start(crate::ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let bad = Counter::new(names::BAD_REQUESTS);
        let b0 = bad.get();
        let mut input = std::io::Cursor::new(vec![b'x'; 4 << 20]);
        let mut out = Vec::new();
        handle_conn(&svc, &AtomicBool::new(false), &mut input, &mut out);
        svc.shutdown();
        assert_eq!(
            input.position(),
            MAX_LINE as u64 + 1,
            "the connection must stop reading at the cap"
        );
        assert!(bad.get() > b0, "the refusal is a bad request");
        if vrm_faults::armed() {
            // An injected frame cut may tear the reply itself.
            return;
        }
        let reply = String::from_utf8(out).expect("UTF-8 reply");
        assert_eq!(reply.lines().count(), 1, "{reply}");
        assert!(reply.contains(r#""status":"error""#), "{reply}");
        assert!(reply.contains(&MAX_LINE.to_string()), "{reply}");
    }
}
