//! A keep-alive HTTP/1.1 client for the planner API: blocking
//! request/response for closed loops, and pipelined sends with
//! deadline-bounded receives for open loops.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One parsed response.
pub struct Response {
    pub status: u16,
    pub trace_id: String,
    pub body: String,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Write one request without waiting for its answer.
    pub fn send(&mut self, path: &str, trace_id: &str, body: &str) -> std::io::Result<()> {
        let wire = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             X-ND-Trace-Id: {trace_id}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(wire.as_bytes())
    }

    /// Send and block for the answer.
    pub fn call(&mut self, path: &str, trace_id: &str, body: &str) -> std::io::Result<Response> {
        self.send(path, trace_id, body)?;
        loop {
            if let Some(r) = self.take_response()? {
                return Ok(r);
            }
            self.fill(None)?;
        }
    }

    /// The next complete response, waiting at most until `deadline`
    /// (`Ok(None)` when it passes first).
    pub fn recv_until(&mut self, deadline: Instant) -> std::io::Result<Option<Response>> {
        loop {
            if let Some(r) = self.take_response()? {
                return Ok(Some(r));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.fill(Some(deadline - now))?;
        }
    }

    /// Read whatever arrives within `wait` (forever when `None`).
    fn fill(&mut self, wait: Option<Duration>) -> std::io::Result<()> {
        if let Some(wait) = wait {
            if !readable_within(&self.stream, wait)? {
                return Ok(());
            }
        }
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Split one complete response off the front of the buffer.
    fn take_response(&mut self) -> std::io::Result<Option<Response>> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let bad = |m: &str| std::io::Error::new(ErrorKind::InvalidData, m.to_string());
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        let mut trace_id = String::new();
        for l in lines {
            if let Some((k, v)) = l.split_once(':') {
                match k.trim().to_ascii_lowercase().as_str() {
                    "content-length" => length = v.trim().parse::<usize>().ok(),
                    "x-nd-trace-id" => trace_id = v.trim().to_string(),
                    _ => {}
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = String::from_utf8(self.buf[head_end + 4..total].to_vec())
            .map_err(|_| bad("non-UTF-8 body"))?;
        self.buf.drain(..total);
        Ok(Some(Response {
            status,
            trace_id,
            body,
        }))
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Wait until `stream` has bytes to read or `wait` passes. `ppoll`
/// sleeps on a high-resolution timer; socket read timeouts are rounded
/// to scheduler ticks, which would make an open-loop generator late by
/// milliseconds.
fn readable_within(stream: &TcpStream, wait: Duration) -> std::io::Result<bool> {
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: wait.subsec_nanos() as i64,
    };
    // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd`
    // and `struct timespec` values for the duration of the call; nfds is
    // 1, matching the single pollfd; a null sigmask leaves the signal
    // mask unchanged.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match rc {
        0 => Ok(false),
        n if n > 0 => Ok(true),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}
