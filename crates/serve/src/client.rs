//! A blocking client for the serve protocol — the machinery behind
//! `ddtr query`, `ddtr loadtest` and the integration tests.
//!
//! [`Client::connect`] is the raw transport (connect, speak lines);
//! [`ClientBuilder`] layers the fleet-era niceties on top: connect
//! retries and the versioned `Hello` handshake with an auth token.

use crate::endpoint::Endpoint;
use crate::protocol::{ErrorCode, Event, Request, RequestBody, PROTOCOL_VERSION};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A client-side failure: transport trouble, or the server answering
/// the handshake with a structured rejection.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read or write).
    Io(io::Error),
    /// The server rejected the handshake with an `Error` event.
    Rejected {
        /// The machine-readable code, when the server sent one.
        code: Option<ErrorCode>,
        /// The human-readable description.
        error: String,
    },
    /// The connection closed before the handshake finished.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client error: {e}"),
            ClientError::Rejected { code, error } => match code {
                Some(code) => write!(f, "server rejected handshake [{code}]: {error}"),
                None => write!(f, "server rejected handshake: {error}"),
            },
            ClientError::Closed => write!(f, "connection closed during handshake"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A typed builder for fleet-era connections: connect retries around
/// [`Client::connect`], then the versioned `Hello`/`Welcome` handshake
/// with an optional auth token.
///
/// ```no_run
/// use ddtr_serve::{Client, Endpoint};
/// use std::time::Duration;
///
/// let endpoint: Endpoint = "tcp:127.0.0.1:7171".parse().unwrap();
/// let client = Client::builder(endpoint)
///     .auth_token("sesame")
///     .retry_connect(5, Duration::from_millis(100))
///     .connect();
/// ```
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    endpoint: Endpoint,
    auth: Option<String>,
    retries: u32,
    retry_delay: Duration,
}

impl ClientBuilder {
    /// A builder for `endpoint` with no auth and no retries.
    #[must_use]
    pub fn new(endpoint: Endpoint) -> Self {
        ClientBuilder {
            endpoint,
            auth: None,
            retries: 0,
            retry_delay: Duration::from_millis(50),
        }
    }

    /// Presents `token` in the handshake's `Hello` (required by servers
    /// started with `--auth-token`).
    #[must_use]
    pub fn auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth = Some(token.into());
        self
    }

    /// Retries a refused/failed connect up to `attempts` more times,
    /// sleeping `delay` between attempts — the difference between a
    /// thundering herd of clients surviving a momentarily full accept
    /// backlog and dropping connections.
    #[must_use]
    pub fn retry_connect(mut self, attempts: u32, delay: Duration) -> Self {
        self.retries = attempts;
        self.retry_delay = delay;
        self
    }

    /// Connects (with retries) and performs the versioned handshake,
    /// returning the ready-to-use client.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] when every connect attempt fails,
    /// [`ClientError::Rejected`] when the server answers the handshake
    /// with an `Error` event (bad token, unsupported version), and
    /// [`ClientError::Closed`] when the connection ends mid-handshake.
    pub fn connect(self) -> Result<Client, ClientError> {
        let mut attempt = 0;
        let mut client = loop {
            match Client::connect(&self.endpoint) {
                Ok(client) => break client,
                Err(e) => {
                    if attempt >= self.retries {
                        return Err(ClientError::Io(e));
                    }
                    attempt += 1;
                    std::thread::sleep(self.retry_delay);
                }
            }
        };
        client.handshake(self.auth)?;
        Ok(client)
    }
}

/// One connection to a running `ddtr serve` instance.
///
/// The client is deliberately dumb: it writes [`Request`] lines and reads
/// [`Event`] lines; [`Client::call`] layers the one pattern everything
/// uses — send a request, stream its events, return its terminal event.
/// [`Client::builder`] adds connect retries and the fleet handshake.
pub struct Client {
    reader: Box<dyn BufRead + Send>,
    writer: Box<dyn Write + Send>,
    greeting: Option<Event>,
    handshakes: usize,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// A typed builder around `endpoint`: connect retries and the
    /// versioned handshake with an optional auth token.
    #[must_use]
    pub fn builder(endpoint: Endpoint) -> ClientBuilder {
        ClientBuilder::new(endpoint)
    }

    /// Connects to a socket endpoint ([`Endpoint::Stdio`] cannot be
    /// connected to — it is the server's own stdin/stdout).
    ///
    /// # Errors
    ///
    /// Returns the connection error, or `InvalidInput` for `stdio`.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Stdio => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot connect to `stdio` — point the client at the server's tcp:/unix: endpoint",
            )),
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                // One small request line waiting on one small reply line
                // is the worst case for Nagle + delayed ACK (tens of ms
                // per round trip); send request lines immediately.
                let _ = stream.set_nodelay(true);
                Ok(Self::over(BufReader::new(stream.try_clone()?), stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let stream = std::os::unix::net::UnixStream::connect(path)?;
                Ok(Self::over(BufReader::new(stream.try_clone()?), stream))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix: endpoints need a Unix platform",
            )),
        }
    }

    /// Wraps an already-established duplex transport.
    #[must_use]
    pub fn over(
        reader: impl BufRead + Send + 'static,
        writer: impl Write + Send + 'static,
    ) -> Self {
        Client {
            reader: Box::new(reader),
            writer: Box::new(writer),
            greeting: None,
            handshakes: 0,
        }
    }

    /// The server's greeting `Hello` event, once the handshake (or any
    /// read that encountered it) has seen it.
    #[must_use]
    pub fn greeting(&self) -> Option<&Event> {
        self.greeting.as_ref()
    }

    /// Performs the versioned `Hello`/`Welcome` handshake on an open
    /// connection, presenting `auth` when given. The `Hello` announces no
    /// client capabilities.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] when the server answers with an
    /// `Error`, [`ClientError::Closed`] on EOF mid-handshake.
    pub fn handshake(&mut self, auth: Option<String>) -> Result<(), ClientError> {
        self.handshakes += 1;
        let id = format!("hello-{}", self.handshakes);
        let request = Request::new(
            id,
            RequestBody::Hello {
                proto_version: PROTOCOL_VERSION,
                auth,
                capabilities: Vec::new(),
            },
        );
        let reply = self.call(&request, |_| {})?;
        match reply {
            Event::Welcome { .. } => Ok(()),
            Event::Error { error, code, .. } => Err(ClientError::Rejected { code, error }),
            other => Err(ClientError::Rejected {
                code: None,
                error: format!("unexpected handshake reply: {other:?}"),
            }),
        }
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Returns the underlying write error.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        let line = serde_json::to_string(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    /// Reads the next event line. `Ok(None)` means the server closed the
    /// connection.
    ///
    /// # Errors
    ///
    /// Returns the read error, or `InvalidData` for an unparseable line.
    pub fn next_event(&mut self) -> io::Result<Option<Event>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            if line.trim().is_empty() {
                continue;
            }
            let event: Event = serde_json::from_str(line.trim()).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unparseable event: {e}: {line}"),
                )
            })?;
            if matches!(event, Event::Hello { .. }) && self.greeting.is_none() {
                self.greeting = Some(event.clone());
            }
            return Ok(Some(event));
        }
    }

    /// Sends `request` and reads events until its terminal event
    /// (`Result`, `Cancelled`, `Error`, `Pong`, `Welcome` or `Stats`),
    /// which is returned. Every event read on the way — including events
    /// of other concurrent requests on this connection — is passed to
    /// `on_event` first.
    ///
    /// # Errors
    ///
    /// Returns the transport error, or `UnexpectedEof` if the connection
    /// closes before the terminal event.
    pub fn call(
        &mut self,
        request: &Request,
        mut on_event: impl FnMut(&Event),
    ) -> io::Result<Event> {
        self.send(request)?;
        while let Some(event) = self.next_event()? {
            on_event(&event);
            if event.is_terminal() && event.id() == Some(request.id.as_str()) {
                return Ok(event);
            }
            // A parse failure of the request itself comes back with a
            // null id; surface it as this call's terminal event.
            if matches!(&event, Event::Error { id: None, .. }) {
                return Ok(event);
            }
        }
        Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("connection closed before request `{}` finished", request.id),
        ))
    }
}
