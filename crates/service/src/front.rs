//! The front door shared by the single-engine daemon ([`crate::server`])
//! and the router ([`crate::router`]): the non-blocking accept loop, the
//! per-connection text loop with its `HELLO v3` upgrade, the framed (v3)
//! loop, and request dispatch under the panic backstop.
//!
//! An endpoint plugs in through [`Endpoint`]: it executes parsed requests
//! and batched submissions against its own state, and exposes its
//! telemetry and shutdown flag. Everything else — socket deadlines,
//! shutdown polling, input bounds, parse errors, latency observation and
//! panic containment — lives here once. The loop is generic over the
//! endpoint, so dispatch is static: the SUBMIT/TICK path pays no virtual
//! call, lock or allocation for the indirection.
//!
//! Plain `std::net` blocking sockets — no async runtime. An accept loop
//! runs on one thread in non-blocking mode (polling the shutdown flag);
//! each accepted protocol connection is handled on a worker of a
//! [`ThreadPool`]. Handlers use short read timeouts so an idle connection
//! notices shutdown promptly.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use haste_distributed::TaskSpec;
use haste_parallel::ThreadPool;

use crate::framing::{self, BatchAck, MAX_FRAME};
use crate::proto::{ErrCode, Reply, Request};
use crate::telemetry::{self, Telemetry};

/// How long a handler blocks on a read before re-checking the shutdown
/// flag. Short enough for prompt shutdown, long enough to stay off the CPU.
const READ_POLL: Duration = Duration::from_millis(25);

/// Write deadline for connection handlers: a client that stops reading
/// while the endpoint writes a large reply (an `EXPORT?` document) must
/// fail the connection, not wedge its handler thread forever.
const WRITE_STALL: Duration = Duration::from_secs(30);

/// One protocol endpoint behind the shared front door: the daemon's
/// single engine or the router's tenant fleets.
pub(crate) trait Endpoint: Send + Sync + 'static {
    /// Per-connection state, created fresh for every accepted connection
    /// (the daemon has none; the router keeps the tenant binding).
    type Session: Default;

    /// Executes one parsed request; returns the reply and whether the
    /// connection should close. `LOAD`/`RESTORE` read their payload lines
    /// from `reader` (the socket, or the body of a v3 frame) with
    /// [`read_payload`].
    fn execute<R: BufRead>(
        &self,
        request: Request,
        reader: &mut R,
        session: &Self::Session,
    ) -> std::io::Result<(Reply, bool)>;

    /// Executes one `OP_BATCH` submission frame: one ack per record, in
    /// frame order.
    fn execute_batch(&self, specs: &[TaskSpec], session: &Self::Session) -> Vec<BatchAck>;

    /// The endpoint's request instrumentation.
    fn telemetry(&self) -> &Telemetry;

    /// The flag every loop of this endpoint polls; set once to stop.
    fn shutdown(&self) -> &AtomicBool;
}

/// The accept-loop threads of a running endpoint, in start order.
/// Dropping it signals shutdown and joins them all (each protocol loop
/// drains and joins its connection handlers on the way out).
pub(crate) struct Running<E: Endpoint> {
    endpoint: Arc<E>,
    threads: Vec<JoinHandle<()>>,
}

impl<E: Endpoint> Running<E> {
    /// An endpoint with no listener yet.
    pub(crate) fn new(endpoint: Arc<E>) -> Running<E> {
        Running {
            endpoint,
            threads: Vec::new(),
        }
    }

    /// The endpoint's shared state.
    pub(crate) fn endpoint(&self) -> &E {
        &self.endpoint
    }

    /// Serves the wire protocol on `listener`: each connection runs
    /// [`handle_connection`] on a pool of `workers` threads. The worker
    /// count is the connection cap — connection `workers + 1` waits until
    /// one closes.
    pub(crate) fn serve(
        &mut self,
        name: &str,
        listener: TcpListener,
        workers: usize,
    ) -> std::io::Result<()> {
        let pool = ThreadPool::new(workers.max(1));
        let endpoint = Arc::clone(&self.endpoint);
        self.serve_with(name, listener, READ_POLL, WRITE_STALL, move |stream| {
            let endpoint = Arc::clone(&endpoint);
            pool.execute(move || {
                let _ = handle_connection(stream, &*endpoint);
            });
        })
    }

    /// Runs the accept loop on `listener` in a thread named `name`,
    /// handing each connection to `handle` on that thread once its read
    /// and write deadlines are set (a connection whose socket options
    /// fail is dropped). The loop (and with it `handle` and everything it
    /// owns) ends at shutdown.
    pub(crate) fn serve_with<H>(
        &mut self,
        name: &str,
        listener: TcpListener,
        read_deadline: Duration,
        write_deadline: Duration,
        mut handle: H,
    ) -> std::io::Result<()>
    where
        H: FnMut(TcpStream) + Send + 'static,
    {
        listener.set_nonblocking(true)?;
        let endpoint = Arc::clone(&self.endpoint);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while !endpoint.shutdown().load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let ready = stream
                                .set_read_timeout(Some(read_deadline))
                                .and_then(|()| stream.set_write_timeout(Some(write_deadline)))
                                .and_then(|()| stream.set_nodelay(true));
                            if ready.is_ok() {
                                handle(stream);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        self.threads.push(thread);
        Ok(())
    }

    /// Blocks until the first accept loop exits (i.e. forever, unless
    /// another thread signals shutdown).
    pub(crate) fn wait(&mut self) {
        if !self.threads.is_empty() {
            let _ = self.threads.remove(0).join();
        }
    }

    /// Signals shutdown and joins every accept loop. Open connections are
    /// closed after their in-flight request completes.
    pub(crate) fn stop(&mut self) {
        self.endpoint.shutdown().store(true, Ordering::Release);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl<E: Endpoint> Drop for Running<E> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One read from a text connection.
pub(crate) enum LineRead {
    /// A complete line, trailing whitespace trimmed.
    Line(String),
    /// EOF or shutdown — close quietly.
    Closed,
    /// [`MAX_FRAME`] bytes arrived without a newline: reply
    /// `ERR bad-request` and close.
    TooLong,
}

/// Reads one `\n`-terminated line of at most [`MAX_FRAME`] bytes, polling
/// the shutdown flag across read timeouts. Partial bytes accumulate in
/// `buf` between polls, so a slow sender never loses data. Generic over
/// the reader so request handling is unit-testable off a socket.
pub(crate) fn read_line_polling<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> std::io::Result<LineRead> {
    buf.clear();
    loop {
        // The bound is on bytes read, so a newline-free stream stops
        // growing `buf` at the cap instead of at the OOM killer.
        let room = (MAX_FRAME - buf.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', buf) {
            Ok(0) => return Ok(LineRead::Closed),
            Ok(_) if buf.last() != Some(&b'\n') && buf.len() >= MAX_FRAME => {
                return Ok(LineRead::TooLong)
            }
            // A read without a trailing newline (under the cap) means EOF
            // mid-line; the fragment is treated as a final line.
            Ok(_) => {
                let line = String::from_utf8_lossy(buf).trim_end().to_string();
                return Ok(LineRead::Line(line));
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(LineRead::Closed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads the `count` payload lines of a `LOAD`/`RESTORE` document (`verb`
/// names it in error messages). `Ok(Err(reply))` is the refusal to send
/// before closing the connection: the stream ended early, or the document
/// would exceed [`MAX_FRAME`] bytes — the stream is desynchronized beyond
/// recovery either way.
pub(crate) fn read_payload<R: BufRead>(
    reader: &mut R,
    count: usize,
    shutdown: &AtomicBool,
    verb: &str,
) -> std::io::Result<Result<String, Reply>> {
    let too_long = || {
        Reply::Err(
            ErrCode::BadRequest,
            format!("{verb} payload exceeds the {MAX_FRAME}-byte limit"),
        )
    };
    // Every line is at least its newline, so a count past the cap cannot
    // fit; refuse it before reading anything.
    if count > MAX_FRAME {
        return Ok(Err(too_long()));
    }
    let mut payload = String::new();
    let mut buf = Vec::new();
    for _ in 0..count {
        match read_line_polling(reader, &mut buf, shutdown)? {
            LineRead::Line(line) if payload.len() + line.len() < MAX_FRAME => {
                payload.push_str(&line);
                payload.push('\n');
            }
            LineRead::Line(_) | LineRead::TooLong => return Ok(Err(too_long())),
            LineRead::Closed => {
                return Ok(Err(Reply::Err(
                    ErrCode::BadRequest,
                    format!("truncated {verb} payload"),
                )))
            }
        }
    }
    Ok(Ok(payload))
}

/// Serves one connection until EOF, `BYE`, or shutdown.
/// The accept loop has already set the socket's deadlines: reads time out
/// every [`READ_POLL`] to check the shutdown flag, writes after
/// [`WRITE_STALL`].
fn handle_connection<E: Endpoint>(stream: TcpStream, endpoint: &E) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut buf = Vec::new();
    let session = E::Session::default();
    loop {
        let line = match read_line_polling(&mut reader, &mut buf, endpoint.shutdown())? {
            LineRead::Line(line) => line,
            LineRead::Closed => return Ok(()),
            LineRead::TooLong => {
                endpoint.telemetry().count_error(ErrCode::BadRequest);
                let reply = Reply::Err(
                    ErrCode::BadRequest,
                    format!("request line exceeds the {MAX_FRAME}-byte limit"),
                );
                writer.write_all(reply.serialize().as_bytes())?;
                return writer.flush();
            }
        };
        if line.is_empty() {
            continue;
        }
        let (reply, close) = dispatch(endpoint, &line, &mut reader, &session)?;
        let upgrade = framing::upgrades_to_v3(&line, &reply);
        writer.write_all(reply.serialize().as_bytes())?;
        writer.flush()?;
        if close {
            return Ok(());
        }
        if upgrade {
            // The accepted `HELLO v3` greeting is the last text exchange;
            // everything after it is length-prefixed binary frames.
            return serve_framed(&mut reader, &mut writer, endpoint, &session);
        }
    }
}

/// Serves a connection that negotiated protocol v3: the framed loop over
/// the same dispatch path. Text requests arrive with their payload
/// embedded in the frame, so the payload reader is a cursor over those
/// bytes — [`read_payload`] and every handler behave exactly as over TCP
/// lines, including the truncated-payload close. Batch frames are
/// observed here like text requests in [`dispatch`]: one `SUBMIT` count
/// and latency sample per record, plus the batch size distributions.
fn serve_framed<E: Endpoint, R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    endpoint: &E,
    session: &E::Session,
) -> std::io::Result<()> {
    framing::serve_frames(
        reader,
        writer,
        endpoint.shutdown(),
        |head, payload| {
            let mut embedded = std::io::Cursor::new(payload);
            dispatch(endpoint, head, &mut embedded, session)
        },
        |specs| {
            let start = telemetry::clock_start();
            let acks = batch_backstop(specs, || endpoint.execute_batch(specs, session));
            let rejected = acks
                .iter()
                .filter(|ack| matches!(ack, BatchAck::Err { .. }))
                .count();
            endpoint
                .telemetry()
                .observe_batch(specs.len(), rejected, telemetry::elapsed_us(start));
            acks
        },
    )
}

/// Parses and executes one request; returns the reply and whether the
/// connection should close.
///
/// Execution runs under [`catching`]: a panic anywhere in a handler (or in
/// the engine underneath it) becomes a structured `ERR internal` reply
/// instead of killing the connection loop. That is a backstop, not a
/// license — lint rule P1 keeps panicking constructs out of the service.
pub(crate) fn dispatch<E: Endpoint, R: BufRead>(
    endpoint: &E,
    line: &str,
    reader: &mut R,
    session: &E::Session,
) -> std::io::Result<(Reply, bool)> {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(reason) => {
            endpoint.telemetry().count_error(ErrCode::BadRequest);
            return Ok((Reply::Err(ErrCode::BadRequest, reason), false));
        }
    };
    let opcode = request.opcode();
    let start = telemetry::clock_start();
    let result = catching(AssertUnwindSafe(|| {
        endpoint.execute(request, reader, session)
    }));
    if let Ok((reply, _)) = &result {
        endpoint
            .telemetry()
            .observe_request(opcode, telemetry::elapsed_us(start), reply);
    }
    result
}

/// Runs one request handler, converting a panic into an `ERR internal`
/// reply carrying the panic message. The engine mutex (parking_lot, no
/// poisoning) unlocks during unwind, so the endpoint keeps serving; a
/// panic mid-mutation can leave the engine in an unspecified (still
/// memory-safe) state, which the reply tells the client to `RESTORE` away.
pub(crate) fn catching<F>(f: F) -> std::io::Result<(Reply, bool)>
where
    F: FnOnce() -> std::io::Result<(Reply, bool)> + std::panic::UnwindSafe,
{
    match catch_unwind(f) {
        Ok(result) => result,
        Err(payload) => {
            let context = if let Some(s) = payload.downcast_ref::<&str>() {
                s
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.as_str()
            } else {
                "non-string panic payload"
            };
            Ok((
                Reply::Err(
                    ErrCode::Internal,
                    format!("request handler panicked: {context}"),
                ),
                false,
            ))
        }
    }
}

/// The batch-mode panic backstop: like [`catching`], but vectored — a
/// panic mid-batch yields an `ERR internal` ack for every record (which
/// records applied is unknowable past a panic; the engine state is
/// unspecified either way, and the acks tell the client to recover).
fn batch_backstop<F>(specs: &[TaskSpec], f: F) -> Vec<BatchAck>
where
    F: FnOnce() -> Vec<BatchAck>,
{
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(acks) => acks,
        Err(_) => specs
            .iter()
            .map(|_| BatchAck::rejected(ErrCode::Internal, "request handler panicked"))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each line fits under the cap, but together they do not: the byte
    /// budget is per document, not per line. (Oversized single lines and
    /// line counts are exercised over TCP by the daemon integration tests.)
    #[test]
    fn payload_reads_stop_at_the_frame_cap() {
        let shutdown = AtomicBool::new(false);
        let half = "x".repeat(MAX_FRAME / 2) + "\n";
        let mut reader = std::io::Cursor::new(half.repeat(2).into_bytes());
        match read_payload(&mut reader, 2, &shutdown, "RESTORE").unwrap() {
            Err(Reply::Err(ErrCode::BadRequest, message)) => {
                assert!(message.starts_with("RESTORE payload exceeds"), "{message}")
            }
            other => panic!("expected a bad-request refusal, got {other:?}"),
        }
        let mut reader = std::io::Cursor::new(half.clone().into_bytes());
        assert_eq!(
            read_payload(&mut reader, 1, &shutdown, "LOAD").unwrap(),
            Ok(half)
        );
    }
}
