//! The TCP accept loop: one OS thread per connection, a cooperative
//! stop flag, and port-0 support so tests can bind an ephemeral port.
//!
//! Connection threads are fully isolated: a panic in one (there should
//! be none — the handler's failure paths are all structured) unwinds
//! that thread only, and the listener keeps accepting. Each connection
//! serves exactly one request (`Connection: close`) under a read
//! timeout, so a stalled client cannot pin a thread forever.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::handler::Handler;
use crate::http::{read_request, Response};

/// How long a connection may dribble its request in before the read
/// times out and the connection is dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How often the accept loop polls the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// A running server: its bound address, stop flag and accept thread.
pub struct RunningServer {
    /// The actual bound address (resolves port 0 to the assigned port).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl RunningServer {
    /// Signal the accept loop to stop and wait for it to exit.
    /// In-flight connection threads finish their single request
    /// independently.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one accepted connection: parse a request, answer it, close.
fn serve_connection(handler: &Handler, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut out = stream;
    match read_request(&mut reader) {
        Ok(req) => {
            let resp = handler.handle(&req);
            let _ = resp.write(&mut out);
        }
        Err(e) => {
            let status = e.status();
            if status != 0 {
                let body = causumx::error_envelope("bad_request", &e.message(), &[]);
                let _ = Response::json(status, body).write(&mut out);
            }
        }
    }
    let _ = out.flush();
}

/// Bind `addr` and start accepting. Returns once the listener is bound;
/// the accept loop runs on its own thread until [`RunningServer::stop`]
/// (or drop).
pub fn spawn(handler: Arc<Handler>, addr: &str) -> std::io::Result<RunningServer> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let accept_thread = std::thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || {
            while !stop_flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // Blocking I/O per connection; the accept socket
                        // stays nonblocking for stop-flag polling.
                        let _ = stream.set_nonblocking(false);
                        let h = Arc::clone(&handler);
                        // When no thread can be spawned, the stream drops
                        // with the closure: that connection closes
                        // unanswered and accepting continues.
                        let _ = std::thread::Builder::new()
                            .name("serve-conn".into())
                            .spawn(move || serve_connection(&h, stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
        })?;
    Ok(RunningServer {
        addr: bound,
        stop,
        accept_thread: Some(accept_thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::ServeOptions;
    use causumx::{ConfigBuilder, Session};
    use std::io::Read;
    use table::TableBuilder;

    fn tiny_handler() -> Arc<Handler> {
        let table = TableBuilder::new()
            .cat("g", &["a", "a", "b", "b"])
            .unwrap()
            .cat("t", &["x", "y", "x", "y"])
            .unwrap()
            .float("o", vec![1.0, 2.0, 3.0, 4.0])
            .unwrap()
            .build()
            .unwrap();
        let dag = causal::Dag::new(&["g", "t", "o"], &[("g", "o"), ("t", "o")]).unwrap();
        let config = ConfigBuilder::new()
            .k(1)
            .theta(0.5)
            .min_arm(1)
            .threads(1)
            .build()
            .unwrap();
        Arc::new(Handler::new(
            Arc::new(Session::new(table, dag, config)),
            ServeOptions::default(),
        ))
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(raw.as_bytes()).expect("send");
        let mut buf = String::new();
        conn.read_to_string(&mut buf).expect("recv");
        buf
    }

    #[test]
    fn binds_port_zero_answers_and_stops() {
        let server = spawn(tiny_handler(), "127.0.0.1:0").expect("bind");
        let addr = server.addr;
        assert_ne!(addr.port(), 0, "ephemeral port resolved");

        let health = roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");

        let garbage = roundtrip(addr, "NOT-HTTP\r\n\r\n");
        assert!(garbage.starts_with("HTTP/1.1 400"), "{garbage}");
        assert!(garbage.contains("\"code\":\"bad_request\""), "{garbage}");

        server.stop();
        // The port is released: a rebind succeeds (maybe not instantly
        // on all kernels, so retry briefly).
        let mut rebound = false;
        for _ in 0..50 {
            if TcpListener::bind(addr).is_ok() {
                rebound = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(rebound, "listener port released after stop()");
    }
}
