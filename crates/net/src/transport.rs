//! Byte transports behind one trait: real TCP via [`std::net`] and an
//! in-process duplex pipe so every test runs deterministically without
//! touching the host network stack.
//!
//! A [`Conn`] is a full-duplex byte stream split into an owned reader and
//! writer half (so a server can pump them from two threads) plus a
//! *read-closer*: a handle that unblocks a blocked read with EOF from
//! another thread, which is how graceful shutdown interrupts reader
//! threads without platform-specific tricks.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Unblocks and permanently EOFs the reading half of a [`Conn`] from any
/// thread. Idempotent.
pub(crate) type ReadCloser = Arc<dyn Fn() + Send + Sync>;

/// One accepted or dialed full-duplex connection.
pub struct Conn {
    /// The receiving half. Blocking reads return `Ok(0)` (EOF) once the
    /// peer's writer closes or the server closes it from another thread.
    pub reader: Box<dyn Read + Send>,
    /// The sending half. Writes fail with [`io::ErrorKind::BrokenPipe`]
    /// once the peer's reader is gone.
    pub writer: Box<dyn Write + Send>,
    pub(crate) closer: ReadCloser,
    pub(crate) peer: String,
}

impl Conn {
    /// A handle that EOFs this connection's reader from another thread.
    pub(crate) fn read_closer(&self) -> ReadCloser {
        Arc::clone(&self.closer)
    }

    /// Human-readable peer description for logs and stats.
    pub(crate) fn peer(&self) -> &str {
        &self.peer
    }
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn").field("peer", &self.peer).finish()
    }
}

/// Accepts inbound [`Conn`]s. Implemented for TCP and the in-process
/// duplex transport.
pub trait Listener: Send + Sync {
    /// Block until the next connection arrives.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] once [`Listener::shutdown`] was called (and
    /// possibly transient accept errors before that).
    fn accept(&self) -> io::Result<Conn>;

    /// The address clients dial, as a display string.
    fn local_addr(&self) -> String;

    /// Stop accepting: unblocks a blocked [`Listener::accept`], which
    /// (along with all later calls) then returns an error. Idempotent.
    fn shutdown(&self);
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

// ---------------------------------------------------------------------
// Accept loop

struct AcceptState {
    stopping: AtomicBool,
    /// Read-closers of live connections, for interrupting their reader
    /// threads at shutdown.
    closers: Mutex<HashMap<u64, ReadCloser>>,
    /// Join handles of the connection threads not yet joined: the accept
    /// loop joins those that finished, `shutdown` the rest.
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running accept loop over a [`Listener`]: one thread accepts, numbers
/// each connection from 1 and serves it on a thread of its own. Both the
/// data plane and the admin plane run on one of these.
pub(crate) struct Acceptor {
    listener: Arc<dyn Listener>,
    state: Arc<AcceptState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Start accepting on `listener`, running `serve(conn_id, conn)` on a
    /// thread per connection. Threads are named `{name}-accept` and
    /// `{name}-conn-{conn_id}`.
    pub(crate) fn start(
        listener: Arc<dyn Listener>,
        name: &'static str,
        serve: impl Fn(u64, Conn) + Send + Sync + 'static,
    ) -> Acceptor {
        let state = Arc::new(AcceptState {
            stopping: AtomicBool::new(false),
            closers: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
        });
        let serve = Arc::new(serve);
        let accept_thread = {
            let (listener, state) = (Arc::clone(&listener), Arc::clone(&state));
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || {
                    let mut next_conn_id = 0u64;
                    loop {
                        let conn = match listener.accept() {
                            Ok(conn) => conn,
                            Err(_) => {
                                if state.stopping.load(Ordering::Acquire) {
                                    return;
                                }
                                std::thread::sleep(Duration::from_millis(1));
                                continue;
                            }
                        };
                        next_conn_id += 1;
                        let conn_id = next_conn_id;
                        lock(&state.closers).insert(conn_id, conn.read_closer());
                        let (serve, serving) = (Arc::clone(&serve), Arc::clone(&state));
                        let handle = std::thread::Builder::new()
                            .name(format!("{name}-conn-{conn_id}"))
                            .spawn(move || {
                                serve(conn_id, conn);
                                lock(&serving.closers).remove(&conn_id);
                            })
                            .expect("spawning a connection thread");
                        let mut threads = lock(&state.conn_threads);
                        for finished in threads.extract_if(.., |h| h.is_finished()) {
                            let _ = finished.join();
                        }
                        threads.push(handle);
                    }
                })
                .expect("spawning the accept thread")
        };
        Acceptor {
            listener,
            state,
            accept_thread: Some(accept_thread),
        }
    }

    /// The address clients dial.
    pub(crate) fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// Stop accepting, EOF every live connection's reader (writers keep
    /// flushing what is already in flight) and join every thread. Returns
    /// `false` if the loop was already shut down.
    pub(crate) fn shutdown(&mut self) -> bool {
        let Some(accept_thread) = self.accept_thread.take() else {
            return false;
        };
        self.state.stopping.store(true, Ordering::Release);
        self.listener.shutdown();
        let _ = accept_thread.join();
        let closers: Vec<ReadCloser> = lock(&self.state.closers).values().cloned().collect();
        for closer in closers {
            closer();
        }
        let conn_threads = std::mem::take(&mut *lock(&self.state.conn_threads));
        for handle in conn_threads {
            let _ = handle.join();
        }
        true
    }
}

// ---------------------------------------------------------------------
// TCP

fn tcp_conn(stream: TcpStream, peer: String) -> io::Result<Conn> {
    let reader = stream.try_clone()?;
    let closer_stream = stream.try_clone()?;
    Ok(Conn {
        reader: Box::new(reader),
        writer: Box::new(stream),
        closer: Arc::new(move || {
            // Shutting down only the read direction EOFs a blocked
            // `read` while letting in-flight responses still go out.
            let _ = closer_stream.shutdown(Shutdown::Read);
        }),
        peer,
    })
}

/// A TCP listener implementing [`Listener`].
pub struct TcpServerListener {
    listener: TcpListener,
    addr: SocketAddr,
    closed: AtomicBool,
}

impl TcpServerListener {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str) -> io::Result<TcpServerListener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(TcpServerListener {
            listener,
            addr,
            closed: AtomicBool::new(false),
        })
    }
}

impl Listener for TcpServerListener {
    fn accept(&self) -> io::Result<Conn> {
        if self.closed.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "listener shut down",
            ));
        }
        let (stream, peer) = self.listener.accept()?;
        if self.closed.load(Ordering::Acquire) {
            // The wake-up connection from `shutdown` (or a client
            // that raced it); refuse either way.
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "listener shut down",
            ));
        }
        stream.set_nodelay(true).ok();
        tcp_conn(stream, peer.to_string())
    }

    fn local_addr(&self) -> String {
        self.addr.to_string()
    }

    fn shutdown(&self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // `std::net` has no way to interrupt `accept`; a self-connection
        // wakes it so it can observe the closed flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Dial a TCP server.
///
/// # Errors
///
/// Propagates the connect failure.
pub fn tcp_connect(addr: &str) -> io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    tcp_conn(stream, addr.to_string())
}

// ---------------------------------------------------------------------
// In-process duplex pipe

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    writer_closed: bool,
    reader_closed: bool,
    /// The reader is blocked on `cv` and no write has signalled it yet:
    /// set by the reader before it waits, cleared by the write that
    /// signals, so neither a write into a pipe nobody waits on nor a
    /// second write before the reader has run signals anybody.
    reader_waiting: bool,
}

#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    cv: Condvar,
}

impl Pipe {
    fn close_reader(&self) {
        lock(&self.state).reader_closed = true;
        self.cv.notify_all();
    }

    fn close_writer(&self) {
        lock(&self.state).writer_closed = true;
        self.cv.notify_all();
    }
}

struct PipeReader {
    pipe: Arc<Pipe>,
}

impl Read for PipeReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut state = lock(&self.pipe.state);
        loop {
            if state.reader_closed {
                return Ok(0); // closed locally: EOF
            }
            if !state.buf.is_empty() {
                // The ring's contents are at most two runs; copy each
                // as a slice.
                let n = buf.len().min(state.buf.len());
                let (front, back) = state.buf.as_slices();
                let from_front = n.min(front.len());
                buf[..from_front].copy_from_slice(&front[..from_front]);
                buf[from_front..n].copy_from_slice(&back[..n - from_front]);
                state.buf.drain(..n);
                return Ok(n);
            }
            if state.writer_closed {
                return Ok(0); // peer gone and buffer drained: EOF
            }
            state.reader_waiting = true;
            state = self
                .pipe
                .cv
                .wait(state)
                .unwrap_or_else(|poison| poison.into_inner());
            state.reader_waiting = false;
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        self.pipe.close_reader();
    }
}

struct PipeWriter {
    pipe: Arc<Pipe>,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = lock(&self.pipe.state);
        if state.reader_closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "pipe reader closed",
            ));
        }
        state.buf.extend(buf);
        let wake = !buf.is_empty() && std::mem::take(&mut state.reader_waiting);
        drop(state);
        if wake {
            self.pipe.cv.notify_all();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.pipe.close_writer();
    }
}

/// Create a connected pair of in-process duplex connections (two pipes,
/// crosswise). Data written to one side is read by the other; dropping a
/// side's writer EOFs the peer's reader; closing a side's reader makes
/// the peer's writes fail with `BrokenPipe`.
pub(crate) fn duplex_pair(client_peer: &str, server_peer: &str) -> (Conn, Conn) {
    let client_to_server = Arc::new(Pipe::default());
    let server_to_client = Arc::new(Pipe::default());
    let client = Conn {
        reader: Box::new(PipeReader {
            pipe: Arc::clone(&server_to_client),
        }),
        writer: Box::new(PipeWriter {
            pipe: Arc::clone(&client_to_server),
        }),
        closer: {
            let pipe = Arc::clone(&server_to_client);
            Arc::new(move || pipe.close_reader())
        },
        peer: server_peer.to_string(),
    };
    let server = Conn {
        reader: Box::new(PipeReader {
            pipe: Arc::clone(&client_to_server),
        }),
        writer: Box::new(PipeWriter {
            pipe: server_to_client,
        }),
        closer: {
            let pipe = client_to_server;
            Arc::new(move || pipe.close_reader())
        },
        peer: client_peer.to_string(),
    };
    (client, server)
}

#[derive(Default)]
struct DuplexQueue {
    conns: VecDeque<Conn>,
    closed: bool,
    dialed: u64,
}

struct DuplexShared {
    queue: Mutex<DuplexQueue>,
    cv: Condvar,
}

/// The accept side of the in-process transport.
pub struct DuplexListener {
    shared: Arc<DuplexShared>,
}

/// The dial side of the in-process transport: cheap to clone, one per
/// client.
#[derive(Clone)]
pub struct DuplexConnector {
    shared: Arc<DuplexShared>,
}

/// Create a connected in-process listener / connector pair — the duplex
/// analogue of binding a TCP port and handing out its address.
pub fn duplex_listener() -> (DuplexListener, DuplexConnector) {
    let shared = Arc::new(DuplexShared {
        queue: Mutex::new(DuplexQueue::default()),
        cv: Condvar::new(),
    });
    (
        DuplexListener {
            shared: Arc::clone(&shared),
        },
        DuplexConnector { shared },
    )
}

impl DuplexConnector {
    /// Dial the listener.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotConnected`] once the listener shut down.
    pub fn connect(&self) -> io::Result<Conn> {
        let mut queue = lock(&self.shared.queue);
        if queue.closed {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "duplex listener shut down",
            ));
        }
        queue.dialed += 1;
        let n = queue.dialed;
        let (client, server) = duplex_pair(&format!("duplex-client-{n}"), "duplex-server");
        queue.conns.push_back(server);
        self.shared.cv.notify_all();
        Ok(client)
    }
}

impl Listener for DuplexListener {
    fn accept(&self) -> io::Result<Conn> {
        let mut queue = lock(&self.shared.queue);
        loop {
            if let Some(conn) = queue.conns.pop_front() {
                return Ok(conn);
            }
            if queue.closed {
                return Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "duplex listener shut down",
                ));
            }
            queue = self
                .shared
                .cv
                .wait(queue)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }

    fn local_addr(&self) -> String {
        "duplex:in-process".to_string()
    }

    fn shutdown(&self) {
        lock(&self.shared.queue).closed = true;
        self.shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_pair_moves_bytes_both_ways() {
        let (mut client, mut server) = duplex_pair("c", "s");
        client.writer.write_all(b"ping").expect("write");
        let mut buf = [0u8; 4];
        server.reader.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");
        server.writer.write_all(b"pong").expect("write");
        client.reader.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn dropping_a_writer_eofs_the_peer_after_draining() {
        let (mut client, server) = duplex_pair("c", "s");
        client.writer.write_all(b"last").expect("write");
        drop(client);
        let mut reader = server.reader;
        let mut got = Vec::new();
        reader.read_to_end(&mut got).expect("drain then EOF");
        assert_eq!(got, b"last");
    }

    #[test]
    fn read_closer_unblocks_a_parked_reader() {
        let (_client, server) = duplex_pair("c", "s");
        let closer = server.read_closer();
        let mut reader = server.reader;
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 1];
            reader.read(&mut buf).expect("EOF, not error")
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        closer();
        assert_eq!(handle.join().expect("reader thread"), 0);
    }

    #[test]
    fn writes_into_a_closed_reader_break_the_pipe() {
        let (mut client, server) = duplex_pair("c", "s");
        drop(server.reader);
        let err = loop {
            match client.writer.write_all(b"x") {
                Ok(()) => continue,
                Err(err) => break err,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    /// The pipe against a `VecDeque<u8>` model, byte for byte, for every
    /// write size 0..=300 crossed with every read-buffer size 1..=64 on
    /// one long-lived pipe. Each step leaves a residue behind, so the
    /// ring's head walks around its capacity and both the write and the
    /// read keep straddling the wrap point at fresh offsets.
    #[test]
    fn pipe_matches_a_byte_queue_model_for_every_write_and_read_size() {
        let (mut client, mut server) = duplex_pair("c", "s");
        let mut model: VecDeque<u8> = VecDeque::new();
        let mut next_byte = 0u8;
        let mut buf = [0u8; 64];
        let mut read_like_the_model =
            |reader: &mut dyn Read, model: &mut VecDeque<u8>, n: usize| {
                let got = reader.read(&mut buf[..n]).expect("read");
                // A read returns what is buffered, up to the buffer's size.
                assert_eq!(got, n.min(model.len()));
                let expected: Vec<u8> = model.drain(..got).collect();
                assert_eq!(&buf[..got], &expected[..]);
            };
        for write_size in 0..=300usize {
            for read_size in 1..=64usize {
                let chunk: Vec<u8> = (0..write_size)
                    .map(|_| {
                        next_byte = next_byte.wrapping_mul(31).wrapping_add(7);
                        next_byte
                    })
                    .collect();
                assert_eq!(client.writer.write(&chunk).expect("write"), write_size);
                model.extend(&chunk);
                // Read (only while bytes are buffered — an empty pipe
                // would block) down to a residue that differs per step.
                let residue = (write_size * 7 + read_size) % 97;
                while model.len() > residue {
                    read_like_the_model(server.reader.as_mut(), &mut model, read_size);
                }
            }
        }
        // EOF comes after the residue, not instead of it.
        drop(client);
        while !model.is_empty() {
            read_like_the_model(server.reader.as_mut(), &mut model, 5);
        }
        assert_eq!(server.reader.read(&mut [0u8; 8]).expect("EOF"), 0);
    }

    #[test]
    fn an_empty_read_buffer_or_an_empty_write_moves_nothing() {
        let (mut client, mut server) = duplex_pair("c", "s");
        assert_eq!(client.writer.write(&[]).expect("empty write"), 0);
        client.writer.write_all(b"x").expect("write");
        assert_eq!(server.reader.read(&mut []).expect("empty read"), 0);
        let mut one = [0u8; 1];
        assert_eq!(server.reader.read(&mut one).expect("read"), 1);
        assert_eq!(&one, b"x");
    }

    #[test]
    fn duplex_listener_accepts_dialed_connections() {
        let (listener, connector) = duplex_listener();
        let mut client = connector.connect().expect("dial");
        let mut server = listener.accept().expect("accept");
        client.writer.write_all(b"hi").expect("write");
        let mut buf = [0u8; 2];
        server.reader.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"hi");
        listener.shutdown();
        assert!(connector.connect().is_err());
        assert!(listener.accept().is_err());
    }

    #[test]
    fn the_acceptor_joins_the_threads_of_closed_connections() {
        let (listener, connector) = duplex_listener();
        let (served, closed) = std::sync::mpsc::channel();
        let mut acceptor = Acceptor::start(Arc::new(listener), "join", move |_, mut conn| {
            let _ = io::copy(&mut conn.reader, &mut io::sink());
            let _ = served.send(());
        });
        for _ in 0..64 {
            drop(connector.connect().expect("dial"));
            closed.recv().expect("the connection was served");
        }
        let held = lock(&acceptor.state.conn_threads).len();
        assert!(held <= 2, "{held} handles held after 64 closed connections");
        assert!(acceptor.shutdown());
    }

    #[test]
    fn duplex_listener_shutdown_unblocks_accept() {
        let (listener, _connector) = duplex_listener();
        let listener = Arc::new(listener);
        let accepting = Arc::clone(&listener);
        let handle = std::thread::spawn(move || accepting.accept().is_err());
        std::thread::sleep(std::time::Duration::from_millis(20));
        listener.shutdown();
        assert!(handle.join().expect("accept thread"));
    }

    #[test]
    fn tcp_loopback_round_trips_when_sockets_are_available() {
        // The sandbox allows loopback sockets; if binding ever fails in a
        // more restricted environment the duplex transport still covers
        // the protocol, so only assert when the bind succeeds.
        let Ok(listener) = TcpServerListener::bind("127.0.0.1:0") else {
            eprintln!("skipping: cannot bind loopback");
            return;
        };
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("accept");
            let mut buf = [0u8; 5];
            conn.reader.read_exact(&mut buf).expect("read");
            conn.writer.write_all(&buf).expect("echo");
            buf
        });
        let mut client = tcp_connect(&addr).expect("connect");
        client.writer.write_all(b"tcp-1").expect("write");
        let mut echo = [0u8; 5];
        client.reader.read_exact(&mut echo).expect("read");
        assert_eq!(&echo, b"tcp-1");
        assert_eq!(&server.join().expect("server thread"), b"tcp-1");
    }

    #[test]
    fn tcp_listener_shutdown_unblocks_accept() {
        let Ok(listener) = TcpServerListener::bind("127.0.0.1:0") else {
            eprintln!("skipping: cannot bind loopback");
            return;
        };
        let listener = Arc::new(listener);
        let accepting = Arc::clone(&listener);
        let handle = std::thread::spawn(move || accepting.accept().is_err());
        std::thread::sleep(std::time::Duration::from_millis(20));
        listener.shutdown();
        assert!(handle.join().expect("accept thread"));
    }
}
