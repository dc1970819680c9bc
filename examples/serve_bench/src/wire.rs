//! The bench's closed-loop connection: one `GENERATE` line per `write_all`,
//! the reply read back through the typed `Response::parse`.
//!
//! `vllm::frontend::Client` is not used for the traffic. Its `writeln!`
//! reaches the socket as four small writes; without `TCP_NODELAY` the tail
//! waits for the server's delayed ACK, and when that wait outlasts the
//! handler's 100 ms read timeout the server drops the half line it had read
//! and answers the tail with `ERR protocol unknown verb`. One `HELLO` in a
//! few hundred fails that way on an idle server (`frontend.hello_rtt_us_p50`
//! still goes through `Client`, to keep measuring that path). A benchmark
//! must run workloads on which no operation fails, so it sends whole lines.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use vllm::frontend::ClientOutput;
use vllm::protocol::{Response, PROTOCOL_VERSION};

pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A finished `GENERATE`: the server's request id and the outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub request_id: String,
    pub outputs: Vec<ClientOutput>,
}

impl Connection {
    /// Connects and negotiates the protocol version.
    pub fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let mut conn = Self {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
        };
        match conn.round_trip(&format!("HELLO\tversion={PROTOCOL_VERSION}"))? {
            Response::Hello { .. } => Ok(conn),
            other => Err(format!("unexpected HELLO reply {other:?}")),
        }
    }

    /// Sends one line in a single write and parses the first reply line.
    fn round_trip(&mut self, line: &str) -> Result<Response, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => {
                Response::parse(line.trim_end_matches(['\r', '\n'])).map_err(|e| e.to_string())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// Sends one `GENERATE` wire line and waits for `OK`, the `OUT` lines and
    /// `END`. An `ERR` reply or a malformed one is the error.
    pub fn generate(&mut self, line: &str) -> Result<Reply, String> {
        let (request_id, num_outputs) = match self.round_trip(line)? {
            Response::Ok {
                request_id,
                num_outputs,
            } => (request_id, num_outputs),
            Response::Err { kind, message, .. } => {
                return Err(format!("ERR {}: {message}", kind.wire_name()))
            }
            other => return Err(format!("unexpected reply {other:?}")),
        };
        let mut outputs = Vec::with_capacity(num_outputs);
        loop {
            match self.read_response()? {
                Response::Out {
                    index,
                    cumulative_logprob,
                    text,
                } => outputs.push(ClientOutput {
                    index,
                    cumulative_logprob,
                    text,
                }),
                Response::End if outputs.len() == num_outputs => {
                    return Ok(Reply {
                        request_id,
                        outputs,
                    })
                }
                other => return Err(format!("unexpected reply {other:?}")),
            }
        }
    }
}

/// Sends one admin verb with a single-line reply (`TIER`, `METRICS\tjson`) on
/// a socket of its own, in one write like everything here, and returns the
/// line unparsed (the metrics snapshot is not a `Response` frame).
pub fn one_line(addr: SocketAddr, verb: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("{verb}\n").as_bytes())?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    Ok(line.trim_end().to_string())
}
