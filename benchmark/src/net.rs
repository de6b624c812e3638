//! The load generator's client socket: bind to a chosen loopback source
//! address *before* connecting, so the server (which takes `client_ip`
//! from the socket peer) sees the address the connection script names.
//!
//! `std::net::TcpStream` cannot bind before connecting and the repository
//! vendors no `libc`, so the three calls are declared against the C
//! library directly, in the style of `crates/httpd/src/reactor.rs`.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpStream};
use std::os::fd::FromRawFd;
use std::time::Duration;

mod sys {
    use std::os::raw::{c_int, c_void};

    pub const AF_INET: c_int = 2;
    pub const SOCK_STREAM: c_int = 1;
    pub const SOCK_CLOEXEC: c_int = 0o2000000;

    /// Mirrors `struct sockaddr_in` (Linux): family in host order, port and
    /// address in network order, eight bytes of padding.
    #[repr(C)]
    pub struct SockAddrIn {
        pub family: u16,
        pub port_be: u16,
        pub addr_be: u32,
        pub zero: [u8; 8],
    }

    extern "C" {
        pub fn socket(domain: c_int, kind: c_int, protocol: c_int) -> c_int;
        pub fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        pub fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

fn sockaddr(addr: SocketAddrV4) -> sys::SockAddrIn {
    sys::SockAddrIn {
        family: sys::AF_INET as u16,
        port_be: addr.port().to_be(),
        addr_be: u32::from(*addr.ip()).to_be(),
        zero: [0; 8],
    }
}

/// Opens a blocking TCP connection from `source` (any free port) to
/// `server`.
pub fn connect_from(source: Ipv4Addr, server: SocketAddr) -> io::Result<TcpStream> {
    let SocketAddr::V4(server) = server else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "IPv4 server address required",
        ));
    };
    // SAFETY: plain syscall, no pointers.
    let fd = unsafe { sys::socket(sys::AF_INET, sys::SOCK_STREAM | sys::SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let len = std::mem::size_of::<sys::SockAddrIn>() as u32;
    let local = sockaddr(SocketAddrV4::new(source, 0));
    let remote = sockaddr(server);
    // SAFETY: `local` and `remote` are live `sockaddr_in` values of `len`
    // bytes for the duration of each call; `fd` is the socket opened above.
    let connected = unsafe {
        sys::bind(fd, std::ptr::from_ref(&local).cast(), len) == 0
            && sys::connect(fd, std::ptr::from_ref(&remote).cast(), len) == 0
    };
    if !connected {
        let error = io::Error::last_os_error();
        // SAFETY: `fd` is ours and not yet owned by a `TcpStream`.
        unsafe { sys::close(fd) };
        return Err(error);
    }
    // SAFETY: `fd` is a connected stream socket owned by nothing else.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    stream.set_nodelay(true)?;
    // A wedged server must fail the request, not hang the benchmark.
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    Ok(stream)
}

/// One keep-alive client connection with its read buffer.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// What came back for one request.
pub struct Reply {
    pub status: u16,
    /// The server announced `connection: close`.
    pub closing: bool,
}

impl Client {
    pub fn connect(source: Ipv4Addr, server: SocketAddr) -> io::Result<Client> {
        Ok(Client {
            stream: connect_from(source, server)?,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one request and reads exactly one framed response.
    pub fn exchange(&mut self, wire: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(wire)?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(reply) = parse_response(&self.buf) {
                return Ok(reply);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Parses one complete response frame (head plus `content-length` body);
/// `None` while bytes are still missing.
pub fn parse_response(buf: &[u8]) -> Option<Reply> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut body_len = 0usize;
    let mut closing = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            body_len = value.trim().parse().ok()?;
        } else if name.eq_ignore_ascii_case("connection") {
            closing = value.trim().eq_ignore_ascii_case("close");
        }
    }
    (buf.len() >= head_end + 4 + body_len).then_some(Reply { status, closing })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn bind_before_connect_yields_the_requested_peer_address() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = listener.local_addr().unwrap();
        for source in [Ipv4Addr::new(127, 0, 1, 7), Ipv4Addr::new(127, 3, 200, 41)] {
            let client = connect_from(source, server).unwrap();
            let (_accepted, peer) = listener.accept().unwrap();
            assert_eq!(peer.ip(), std::net::IpAddr::V4(source));
            assert_eq!(
                client.local_addr().unwrap().ip(),
                std::net::IpAddr::V4(source)
            );
        }
    }

    #[test]
    fn connect_errors_surface_and_close_the_socket() {
        // Port 1 on loopback: nothing listens there.
        let refused = connect_from(Ipv4Addr::new(127, 0, 1, 1), "127.0.0.1:1".parse().unwrap());
        assert!(refused.is_err());
        assert!(connect_from(Ipv4Addr::LOCALHOST, "[::1]:80".parse().unwrap()).is_err());
    }

    #[test]
    fn response_framing_waits_for_the_whole_body() {
        let head = b"HTTP/1.1 403 Forbidden\r\ncontent-length: 5\r\nconnection: close\r\n\r\n";
        assert!(parse_response(&head[..20]).is_none());
        assert!(parse_response(head).is_none());
        let mut full = head.to_vec();
        full.extend_from_slice(b"hello");
        let reply = parse_response(&full).unwrap();
        assert_eq!(reply.status, 403);
        assert!(reply.closing);
        let keep = b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\nconnection: keep-alive\r\n\r\n";
        let reply = parse_response(keep).unwrap();
        assert_eq!((reply.status, reply.closing), (200, false));
    }
}
