//! The generator's side of the `pdm serve` wire protocol: an allocation-free
//! frame reader, the session handshake, stats queries, and the server
//! process itself (spawned, scrubbed of path-selecting variables, and
//! always killed and reaped).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use pdm_stream::proto::{self, Hello};
use pdm_stream::GlobalSnapshot;

/// Environment variables that each select a different code path in the
/// program; the process under test never inherits them.
pub const SCRUBBED_ENV: [&str; 6] = [
    "PDM_PREFILTER",
    "PDM_THREADS",
    "RAYON_NUM_THREADS",
    "PDM_SERVE_MODE",
    "PDM_FORCE_POLL",
    "PDM_PAR_THRESHOLD",
];

/// A `Command` for this executable in one of its process-under-test modes.
pub fn sut_command(args: &[&str]) -> Command {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut cmd = Command::new(exe);
    cmd.args(args);
    for k in SCRUBBED_ENV {
        cmd.env_remove(k);
    }
    cmd
}

/// A child process that is killed and reaped when dropped.
pub struct Reaped {
    pub child: Child,
}

impl Reaped {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A running `pdm serve` and what its banner said.
pub struct Server {
    pub proc: Reaped,
    pub addr: SocketAddr,
    /// The banner's `dictionary boot:` line said it cold-loaded.
    pub boot_cold: bool,
    _stdout: BufReader<ChildStdout>,
}

/// Spawn `pdm serve <args>` (through `pdm::cli`) on an ephemeral port and
/// wait for its banner.
pub fn spawn_server(args: &[String]) -> io::Result<Server> {
    // Leading `pin <cpu>` stays in front of the `pdm` arguments.
    let split = if args.first().map(String::as_str) == Some("pin") {
        2
    } else {
        0
    };
    let mut argv: Vec<&str> = args[..split].iter().map(String::as_str).collect();
    argv.extend(["pdm", "serve", "--port", "0"]);
    argv.extend(args[split..].iter().map(String::as_str));
    let child = sut_command(&argv)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut proc = Reaped { child };
    let mut out = BufReader::new(proc.child.stdout.take().expect("piped stdout"));
    let mut boot_cold = false;
    let mut line = String::new();
    loop {
        line.clear();
        if out.read_line(&mut line)? == 0 {
            return Err(io::Error::other("server exited before its banner"));
        }
        if line.starts_with("dictionary boot:") {
            boot_cold = line.contains("cold-loaded");
        }
        if line.starts_with("serving ") {
            break;
        }
    }
    // "serving N patterns ... on 0.0.0.0:PORT (reactor mode; ...)"
    let port = line
        .split(" on ")
        .last()
        .and_then(|s| s.split_whitespace().next())
        .and_then(|a| a.rsplit(':').next())
        .and_then(|p| p.parse::<u16>().ok())
        .ok_or_else(|| io::Error::other(format!("unparsed banner: {line}")))?;
    Ok(Server {
        proc,
        addr: SocketAddr::from(([127, 0, 0, 1], port)),
        boot_cold,
        _stdout: out,
    })
}

/// Incremental frame reader over one socket; frames are returned as
/// offsets into its own buffer, so reading allocates (and zeroes) nothing
/// per frame or per read.
pub struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl FrameBuf {
    const READ: usize = 256 << 10;

    pub fn new() -> Self {
        FrameBuf {
            buf: vec![0; 2 * Self::READ],
            pos: 0,
            end: 0,
        }
    }

    /// One `read` into the buffer; `Ok(0)` is end of stream.
    pub fn fill(&mut self, mut r: impl Read) -> io::Result<usize> {
        if self.buf.len() - self.end < Self::READ {
            // Move the unread tail to the front (or grow for a huge frame).
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
            if self.buf.len() - self.end < Self::READ {
                self.buf.resize(self.end + Self::READ, 0);
            }
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next complete frame as `(tag, payload)`.
    pub fn next_frame(&mut self) -> Option<(u8, &[u8])> {
        let avail = &self.buf[self.pos..self.end];
        if avail.len() < 5 {
            return None;
        }
        let len = u32::from_le_bytes(avail[1..5].try_into().expect("4 bytes")) as usize;
        if avail.len() < 5 + len {
            return None;
        }
        let at = self.pos;
        self.pos += 5 + len;
        if self.pos == self.end {
            // Fully drained: the next read starts at the front again.
            self.pos = 0;
            self.end = 0;
        }
        Some((self.buf[at], &self.buf[at + 5..at + 5 + len]))
    }
}

/// Encode one frame into `out`.
pub fn frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    proto::write_frame(out, tag, payload).expect("frames below MAX_FRAME");
}

/// Connect and open a session with per-chunk acks; returns once the
/// `HELLO_ACK` arrived.
pub fn open_session(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    let hello = proto::encode_hello(&Hello {
        resume_offset: 0,
        ack_every: 1,
    });
    proto::write_frame(&mut s, proto::TAG_HELLO, &hello)?;
    match proto::read_frame(&mut s)? {
        Some((proto::TAG_HELLO_ACK, _)) => Ok(s),
        other => Err(io::Error::other(format!(
            "expected HELLO_ACK, got {other:?}"
        ))),
    }
}

/// A plain connection (admin frames need no handshake).
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(s)
}

/// The server's global counters over a `TAG_STATS` round trip.
pub fn fetch_stats(addr: SocketAddr) -> io::Result<GlobalSnapshot> {
    let mut s = connect(addr)?;
    proto::write_frame(&mut s, proto::TAG_STATS, &[])?;
    loop {
        match proto::read_frame(&mut s)? {
            Some((proto::TAG_STATS_RESP, p)) => {
                return proto::decode_stats(&p)
                    .ok_or_else(|| io::Error::other("malformed stats payload"));
            }
            Some(_) => continue,
            None => return Err(io::Error::other("stats connection closed")),
        }
    }
}

/// Spawn a server, returning it and the seconds from spawn to the first
/// `HELLO_ACK` (the end-to-end set-up time), plus the handshaken session.
pub fn timed_boot(args: &[String], prepare: impl FnOnce()) -> io::Result<(Server, f64, TcpStream)> {
    prepare();
    let t0 = Instant::now();
    let server = spawn_server(args)?;
    let sess = open_session(server.addr)?;
    Ok((server, t0.elapsed().as_secs_f64(), sess))
}

/// Write all of `bytes` to a shared socket handle.
pub fn send(mut s: &TcpStream, bytes: &[u8]) -> io::Result<()> {
    s.write_all(bytes)
}
