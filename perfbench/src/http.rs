//! A blocking HTTP/1.1 keep-alive client: one request in flight per
//! connection (closed loop), `Content-Length` framing only — the framing
//! `qmatch serve` speaks.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One reply: status code and body bytes.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A keep-alive connection to the server.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// No single reply of any workload takes this long; a stalled server
/// fails the op instead of hanging the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one request and reads its complete reply.
    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> std::io::Result<Reply> {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        if body.len() <= 4096 {
            let mut frame = head.into_bytes();
            frame.extend_from_slice(body);
            self.stream.write_all(&frame)?;
        } else {
            self.stream.write_all(head.as_bytes())?;
            self.stream.write_all(body)?;
        }
        self.read_reply()
    }

    fn read_reply(&mut self) -> std::io::Result<Reply> {
        self.buf.clear();
        let head_end = loop {
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                break end;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("reply head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("reply has no content-length"))?;
        let body_start = head_end + 4;
        while self.buf.len() < body_start + length {
            self.fill()?;
        }
        if self.buf.len() != body_start + length {
            return Err(bad("bytes beyond the reply body"));
        }
        Ok(Reply {
            status,
            body: self.buf[body_start..].to_vec(),
        })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_owned())
}
