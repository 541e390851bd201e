//! Network serving layer for the PrismDB reproduction.
//!
//! This crate puts a wire in front of the [`prism_frontend`] submission
//! layer: a length-prefixed binary protocol ([`protocol`]) carried over
//! either real TCP or a deterministic in-process duplex pipe
//! ([`transport`]), a multiplexing server that maps each decoded request
//! onto the front-end's `try_submit_*` queues and streams completions
//! back out of order ([`server`]), a pipelining client with
//! transparent back-pressure retry ([`client`]), and an HTTP/JSON admin
//! plane serving metrics, health, and trace dumps over the same
//! transports ([`admin`]).
//!
//! The contract, end to end:
//!
//! - **Framing.** Every frame is a `u32` length prefix plus payload. A
//!   malformed payload costs exactly one request (answered with
//!   [`Status::ProtocolError`]); only a corrupt length prefix kills the
//!   connection, because the stream cannot be re-synchronised.
//! - **Back-pressure.** A full submission queue is a *response*, not a
//!   stall: the server answers [`Status::Backpressure`] and the client
//!   may resend. Per-connection flow control caps how many unanswered
//!   requests one connection may pipeline.
//! - **Shutdown.** Draining acks everything already submitted and
//!   refuses everything else with [`Status::ShuttingDown`]; no ticket is
//!   ever stranded (observable via
//!   [`server::NetServer::outstanding_tickets`]).
//! - **Integrity.** Engine-side corruption surfaces as its own pair of
//!   statuses: [`Status::Corruption`] is terminal for the request
//!   (resending cannot make the data whole), while [`Status::Degraded`]
//!   — a partition in read-only quarantine — is retryable, because a
//!   background scrub pass re-arms the partition.
//! - **Reconnect.** A client built with [`client::NetClient::with_dialer`]
//!   survives connection loss: it re-dials with capped exponential
//!   backoff and replays exactly the unacknowledged frames, giving
//!   at-least-once semantics over the protocol's idempotent operations.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use prism_net::client::NetClient;
//! use prism_net::server::{NetServer, ServerOptions};
//! use prism_net::transport::duplex_listener;
//! use prism_types::{Key, MemStore, MutexKv, Value};
//!
//! let engine = Arc::new(MutexKv::new(MemStore::default()));
//! let (listener, connector) = duplex_listener();
//! let mut server =
//!     NetServer::start(engine, Arc::new(listener), ServerOptions::default()).unwrap();
//! let mut client = NetClient::new(connector.connect().unwrap());
//! client.put(Key::from_id(7), Value::filled(16, 0xAB)).unwrap();
//! let value = client.get(Key::from_id(7)).unwrap().unwrap();
//! assert_eq!(value.len(), 16);
//! server.shutdown();
//! ```
//!
//! [`Status::ProtocolError`]: protocol::Status::ProtocolError
//! [`Status::Backpressure`]: protocol::Status::Backpressure
//! [`Status::ShuttingDown`]: protocol::Status::ShuttingDown
//! [`Status::Corruption`]: protocol::Status::Corruption
//! [`Status::Degraded`]: protocol::Status::Degraded

pub mod admin;
pub mod client;
pub mod protocol;
pub mod server;
pub mod transport;

pub use admin::{http_get, AdminClient, AdminServer, HttpResponse};
pub use client::NetClient;
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, FrameDecoder, Request,
    Response, ResponseBody, Status, MAX_FRAME,
};
pub use server::{NetServer, ServerOptions};
pub use transport::{
    duplex_listener, tcp_connect, Conn, DuplexConnector, DuplexListener, Listener,
    TcpServerListener,
};
