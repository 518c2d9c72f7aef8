//! A small blocking client for the serve protocol, used by the
//! repository benchmark, the `serve-frame` fuzz layer (run by
//! `isobar-fuzz-harness`'s `fuzz_smoke` test) and the tests.

use crate::protocol::{encode_request, read_response, FrameError, Opcode, Request, Response};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Bound on response payloads a client will buffer.
const MAX_RESPONSE_PAYLOAD: u64 = 1 << 30;

/// One connection to a running daemon.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect with a 10-second I/O timeout and a 1 GiB response cap.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client { stream })
    }

    /// Send one request frame and read its response.
    pub fn request(&mut self, req: &Request) -> Result<Response, FrameError> {
        let frame = encode_request(req);
        self.stream.write_all(&frame).map_err(FrameError::Io)?;
        self.stream.flush().map_err(FrameError::Io)?;
        read_response(&mut self.stream, MAX_RESPONSE_PAYLOAD)
    }

    /// Store one variable.
    pub fn put(
        &mut self,
        tenant: &str,
        step: u32,
        name: &str,
        width: u8,
        payload: Vec<u8>,
    ) -> Result<Response, FrameError> {
        self.request(&Request {
            opcode: Opcode::Put,
            tenant: tenant.to_string(),
            name: name.to_string(),
            step,
            width,
            payload,
        })
    }

    /// Fetch one variable.
    pub fn get(&mut self, tenant: &str, step: u32, name: &str) -> Result<Response, FrameError> {
        self.request(&Request {
            opcode: Opcode::Get,
            tenant: tenant.to_string(),
            name: name.to_string(),
            step,
            width: 0,
            payload: Vec::new(),
        })
    }

    /// Describe one variable.
    pub fn stat(&mut self, tenant: &str, step: u32, name: &str) -> Result<Response, FrameError> {
        self.request(&Request {
            opcode: Opcode::Stat,
            tenant: tenant.to_string(),
            name: name.to_string(),
            step,
            width: 0,
            payload: Vec::new(),
        })
    }

    /// List the tenant's variables.
    pub fn ls(&mut self, tenant: &str) -> Result<Response, FrameError> {
        self.request(&Request {
            opcode: Opcode::Ls,
            tenant: tenant.to_string(),
            name: String::new(),
            step: 0,
            width: 0,
            payload: Vec::new(),
        })
    }
}
