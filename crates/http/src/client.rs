//! A minimal blocking HTTP/1.1 client, just enough to talk to the
//! frontend: used by the integration tests (which scrape `/metrics` over
//! the wire and gate on the metric catalog) and by the benchmark.
//! Keep-alive: one [`Client`] can issue many requests over one
//! connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// `(lower-cased name, trimmed value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Response {
    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// First value of header `name` (case-insensitive lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }
}

/// A persistent connection to one frontend.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to `addr` with sane timeouts for a loopback peer.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Issue one request and read the full response. `headers` are sent
    /// verbatim on top of the `Host` and `Content-Length` the client
    /// always writes.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: kgnet\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        self.read_response()
    }

    /// `GET path` over this connection.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, &[], b"")
    }

    /// `POST path` with `body` over this connection.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Response> {
        self.request("POST", path, &[], body)
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut buf = Vec::new();
        let head_end = loop {
            if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the response head",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status =
            status_line.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok()).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line: {status_line}"),
                )
            })?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_owned()))
            .collect();
        let content_length = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .unwrap_or(0);
        let mut body = buf[head_end + 4..].to_vec();
        while body.len() < content_length {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(content_length);
        Ok(Response { status, headers, body })
    }
}

/// One-shot `GET` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    Client::connect(addr)?.get(path)
}

/// One-shot `POST` on a fresh connection.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> io::Result<Response> {
    Client::connect(addr)?.post(path, body)
}
