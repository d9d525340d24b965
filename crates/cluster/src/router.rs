//! `routerd`'s front door: TSR2/TSR3/TSR4 in, one pipelined `TSR4`
//! uplink per worker out.
//!
//! ```text
//!            ┌──────────┐ conn queue ┌─────────────┐ per-worker  ┌──────────┐  one open
//!  clients ─▶│ acceptor │──(bounded)▶│ client      │──(bounded)─▶│ uplink   │═════════▶ ingestd w
//!            └──────────┘  full ⇒    │ handlers    │  chunk      │ writer   │  TSR4    (TSR4)
//!                          refuse    │ (key rows,  │  queues     ├──────────┤  frames
//!                                    │  re-batch   │  full ⇒ shed│ ack      │◀═════════ cumulative
//!                                    │  columns)   │             │ reader   │           acks
//!                                    └─────────────┘             └──────────┘
//! ```
//!
//! Clients speak the unchanged single-node protocol: stream
//! `Report::encode_frame` frames (or `TSR4` batch frames), half-close,
//! read `u64` acks — the last one is the durable total. A client
//! handler validates each `TSR4` frame once
//! ([`ReportBatch::decode_payload_into`]), computes every row's
//! placement key straight from the columns ([`row_key`], bit-identical
//! to the row form's [`report_key`]), and gathers each worker's rows
//! into `TSR4` frame bytes ([`BatchEncoder::push_row`]). At the end of
//! each read round it enqueues one *chunk* per worker: the frame bytes,
//! the report count and the connection's ack tally. Single-report
//! frames join the same chunks. No report becomes a row-form `Report`
//! between the client socket and the worker socket.
//!
//! Each uplink keeps one worker connection open while its queue has
//! work (a *busy period*). It writes chunks back to back, and a reader
//! thread settles them FIFO from the worker's mid-stream cumulative
//! acks as those arrive — the worker ingests frames in write order, so
//! its cumulative count covers a prefix of the chunks written. Once the
//! queue has been empty for [`RouterConfig::linger`], the uplink
//! half-closes and reads the worker's final ack. Worker acks propagate
//! to the originating client connections, so a client's ack certifies
//! exactly what the single-node ack certifies: that many reports
//! validated, logged, and flushed by a worker.
//!
//! A connection that sends `TSR4` frames additionally receives
//! *cumulative* acks opportunistically mid-stream (written between
//! reads, whenever more of its reports have settled durable), so a
//! batching client that loses the router mid-upload still holds a
//! worker-certified floor — a crash costs it the in-flight chunks, not
//! the whole connection's progress. Connections that only ever send
//! single-report frames see the classic wire exchange, byte for byte:
//! one ack at EOF.
//!
//! **Failure semantics — the double-count rule.** A worker keeps every
//! report it ingested from a stream that later failed (each frame is an
//! independent LDP message), so the router never resends a chunk whose
//! bytes may have reached a worker. On any uplink write or read error
//! every in-flight chunk is settled — reports below the worker's last
//! cumulative ack count as acked, the rest as
//! [`RouterStats::routed_failed`] — and the worker is marked down; the
//! client decides, as it would against a single node. Only *connecting*
//! retries: with exponential backoff on the home worker, then failover
//! to the next live worker on the ring — placement is a balance
//! decision, not a correctness one, because the cluster merge is exact
//! under any partition.
//!
//! **Conn-advance budget.** A worker's `max_conn_advance` (how far one
//! connection may push its watermark) is per connection, and an
//! uplink's connection now lasts a whole busy period: behind a router
//! the budget covers every report routed to that worker until the
//! uplink idles for `linger`, not one client's stream. A frame the
//! worker refuses under it never enters the cumulative ack, so the
//! chunks written after it settle only when the busy period ends (FIFO
//! against the final ack). The default (`u64::MAX`, no limit) is
//! unaffected.

use crate::hash::{report_key, row_key, HashRing};
use crossbeam::channel::{self, RecvTimeoutError, TrySendError};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trajshare_aggregate::grant;
use trajshare_aggregate::{
    BatchEncoder, GrantBoard, GrantFrame, GrantSubscriber, ReportBatch, StreamDecoder, WireFrame,
};

/// Router deployment shape.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Client-facing listen address; port 0 picks a free port.
    pub addr: SocketAddr,
    /// Worker ingest addresses (the `ingestd --addr` of each worker).
    pub workers: Vec<SocketAddr>,
    /// Client-handler threads.
    pub client_threads: usize,
    /// Pending-connection queue depth; full ⇒ connections refused.
    pub conn_queue_depth: usize,
    /// Per-worker queue capacity, in reports: chunks are weighted by
    /// their report count (an empty queue admits any one chunk). A
    /// chunk that finds no room within `enqueue_timeout` is shed — its
    /// reports go un-acked.
    pub worker_queue_depth: usize,
    /// Max reports per `TSR4` frame forwarded to a worker.
    pub batch_max: usize,
    /// How long an uplink keeps its worker connection open with an
    /// empty queue before it half-closes and reads the final ack (the
    /// end of a busy period). Chunks never wait for it: an uplink
    /// writes each chunk as soon as it is queued.
    pub linger: Duration,
    /// How long a client handler waits for queue room before shedding.
    pub enqueue_timeout: Duration,
    /// How long a client connection waits at EOF for its routed
    /// reports' worker acks before acking what it has.
    pub ack_timeout: Duration,
    /// Socket timeout for client reads and for uplink reads and writes.
    pub read_timeout: Duration,
    /// Uplink reconnect backoff: first retry delay, doubling per
    /// failure up to `reconnect_backoff_max`.
    pub reconnect_backoff: Duration,
    /// Backoff ceiling.
    pub reconnect_backoff_max: Duration,
    /// Connect attempts per candidate worker per busy period (1 when
    /// the worker is already marked down — fast failover).
    pub connect_attempts: u32,
    /// Virtual nodes per worker on the hash ring.
    pub vnodes: usize,
    /// Run the TSGB grant session at the router's front door: client
    /// connections may subscribe with a `TSGH` hello and receive the
    /// coordinator's epoch-tagged ε′ announcements
    /// ([`RouterHandle::announce_grant`], fed by `routerd`'s tick loop)
    /// pushed mid-stream, with their acks switching to framed `TSAK`.
    /// Off by default; a subscribe hello is then a protocol violation
    /// (the client would wait forever for a grant that never comes).
    pub grants: bool,
}

impl RouterConfig {
    /// Sensible defaults for loopback clusters and tests.
    pub fn new(addr: SocketAddr, workers: Vec<SocketAddr>) -> Self {
        RouterConfig {
            addr,
            workers,
            client_threads: 4,
            conn_queue_depth: 64,
            worker_queue_depth: 8192,
            batch_max: 512,
            linger: Duration::from_millis(5),
            enqueue_timeout: Duration::from_secs(2),
            ack_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(30),
            reconnect_backoff: Duration::from_millis(50),
            reconnect_backoff_max: Duration::from_secs(1),
            connect_attempts: 3,
            vnodes: 64,
            grants: false,
        }
    }
}

/// Monotonic event counters, shared across all router threads.
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Client connections handed to a handler.
    pub accepted: AtomicU64,
    /// Client connections shed because the conn queue was full.
    pub refused: AtomicU64,
    /// Client connections that streamed to EOF and were acked.
    pub completed: AtomicU64,
    /// Client connections dropped for protocol violations.
    pub disconnected_protocol: AtomicU64,
    /// Socket errors (client or uplink side).
    pub io_errors: AtomicU64,
    /// Reports routed to a worker **and** worker-acked durable.
    pub cluster_routed: AtomicU64,
    /// Reports shed (queue full) or lost to an uplink failure —
    /// un-acked toward their clients, never silently retried.
    pub routed_failed: AtomicU64,
    /// Chunks shipped to a non-home worker because the home worker was
    /// unreachable.
    pub rerouted_batches: AtomicU64,
    /// Uplink connect failures and failed uplink connections (each
    /// marks the worker down until a connect succeeds again).
    pub worker_down: AtomicU64,
}

impl RouterStats {
    fn bump(&self, field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-client-connection ack bookkeeping, shared with every chunk that
/// carries one of the connection's reports.
#[derive(Debug, Default)]
struct ConnTally {
    /// Reports worker-acked durable.
    acked: AtomicU64,
    /// Reports whose fate is decided (acked or failed).
    done: AtomicU64,
}

impl ConnTally {
    /// Decides the fate of `reports` of the connection's reports, the
    /// first `acked` of them worker-acked and the rest failed. `acked`
    /// is published before `done`, so a handler that sees every report
    /// done reads the final acked count.
    fn settle(&self, acked: u64, reports: u64, stats: &RouterStats) {
        if acked > 0 {
            self.acked.fetch_add(acked, Ordering::AcqRel);
            stats.cluster_routed.fetch_add(acked, Ordering::Relaxed);
        }
        if reports > acked {
            stats
                .routed_failed
                .fetch_add(reports - acked, Ordering::Relaxed);
        }
        self.done.fetch_add(reports, Ordering::AcqRel);
    }
}

/// One client connection's reports for one worker from one read round:
/// complete `TSR4` frames ready for the worker socket.
struct Chunk {
    frames: Vec<u8>,
    reports: u64,
    tally: Arc<ConnTally>,
}

const QUEUE_POISONED: &str = "a handler or uplink panicked holding the chunk queue";
const INFLIGHT_POISONED: &str = "an uplink thread panicked holding its in-flight list";

/// A worker's bounded chunk queue, weighted by report count so a full
/// queue holds about `worker_queue_depth` reports however the chunks
/// are cut.
struct ChunkQueue {
    state: Mutex<QueuedChunks>,
    depth: u64,
    /// Signalled when the uplink takes chunks (room for handlers).
    room: Condvar,
    /// Signalled when a handler queues a chunk (work for the uplink).
    work: Condvar,
}

#[derive(Default)]
struct QueuedChunks {
    chunks: VecDeque<Chunk>,
    reports: u64,
}

impl ChunkQueue {
    fn new(depth: usize) -> Self {
        ChunkQueue {
            state: Mutex::new(QueuedChunks::default()),
            depth: depth.max(1) as u64,
            room: Condvar::new(),
            work: Condvar::new(),
        }
    }

    /// Queues `chunk`, waiting up to `timeout` for room. Hands the chunk
    /// back when the queue stayed full (or the router is stopping): the
    /// caller sheds it. An empty queue admits any chunk, so one larger
    /// than the whole depth cannot wedge.
    fn push(&self, chunk: Chunk, timeout: Duration, stop: &AtomicBool) -> Result<(), Chunk> {
        let deadline = Instant::now() + timeout;
        let mut q = self.state.lock().expect(QUEUE_POISONED);
        while q.reports > 0 && q.reports + chunk.reports > self.depth {
            let now = Instant::now();
            if now >= deadline || stop.load(Ordering::SeqCst) {
                return Err(chunk);
            }
            q = self
                .room
                .wait_timeout(q, deadline - now)
                .expect(QUEUE_POISONED)
                .0;
        }
        q.reports += chunk.reports;
        q.chunks.push_back(chunk);
        drop(q);
        self.work.notify_one();
        Ok(())
    }

    /// Moves every queued chunk into `out`, waiting up to `timeout` for
    /// the first; `out` stays empty when none came.
    fn pop_all(&self, timeout: Duration, out: &mut Vec<Chunk>) {
        let deadline = Instant::now() + timeout;
        let mut q = self.state.lock().expect(QUEUE_POISONED);
        while q.chunks.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            q = self
                .work
                .wait_timeout(q, deadline - now)
                .expect(QUEUE_POISONED)
                .0;
        }
        out.extend(q.chunks.drain(..));
        q.reports = 0;
        drop(q);
        self.room.notify_all();
    }
}

/// Marker type for [`Router::start`].
pub struct Router;

/// The running router: owns its threads; query or stop it through this.
pub struct RouterHandle {
    addr: SocketAddr,
    stats: Arc<RouterStats>,
    workers_up: Arc<Vec<AtomicBool>>,
    /// The TSGB grant board ([`RouterConfig::grants`] only).
    board: Option<Arc<GrantBoard>>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Router {
    /// Binds the client listener and spawns the acceptor, client
    /// handlers, and one uplink thread per worker.
    pub fn start(config: RouterConfig) -> std::io::Result<RouterHandle> {
        assert!(!config.workers.is_empty(), "need at least one worker");
        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let stats = Arc::new(RouterStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let workers_up: Arc<Vec<AtomicBool>> = Arc::new(
            config
                .workers
                .iter()
                .map(|_| AtomicBool::new(true))
                .collect(),
        );
        let ring = Arc::new(HashRing::new(config.workers.len(), config.vnodes));
        // The grant board: subscribed client connections hang off it;
        // routerd's tick loop feeds it the coordinator's allocation
        // through [`RouterHandle::announce_grant`].
        let board = config.grants.then(|| Arc::new(GrantBoard::new()));

        let mut threads = Vec::new();
        let queues: Arc<Vec<ChunkQueue>> = Arc::new(
            config
                .workers
                .iter()
                .map(|_| ChunkQueue::new(config.worker_queue_depth))
                .collect(),
        );
        for w in 0..config.workers.len() {
            let queues = Arc::clone(&queues);
            let cfg = config.clone();
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let workers_up = Arc::clone(&workers_up);
            threads.push(std::thread::spawn(move || {
                uplink_loop(w, &queues[w], &cfg, &stats, &stop, &workers_up)
            }));
        }

        let (conn_tx, conn_rx) = channel::bounded::<TcpStream>(config.conn_queue_depth.max(1));
        for _ in 0..config.client_threads.max(1) {
            let rx = conn_rx.clone();
            let queues = Arc::clone(&queues);
            let ring = Arc::clone(&ring);
            let cfg = config.clone();
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let board = board.clone();
            threads.push(std::thread::spawn(move || {
                client_loop(rx, &queues, ring, cfg, stats, stop, board)
            }));
        }
        drop(conn_rx);

        {
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                acceptor_loop(listener, conn_tx, stats, stop)
            }));
        }

        Ok(RouterHandle {
            addr,
            stats,
            workers_up,
            board,
            stop,
            threads,
        })
    }
}

impl RouterHandle {
    /// The bound client-facing address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live event counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Announces the coordinator's grant to every subscribed client
    /// connection (no-op unless [`RouterConfig::grants`]). `routerd`
    /// calls this each tick with the cluster's single-allocator
    /// decision, which is what makes every client behind the router
    /// randomize at one consistent ε′ per window.
    pub fn announce_grant(&self, grant: GrantFrame) {
        if let Some(board) = &self.board {
            board.announce(grant);
        }
    }

    /// The latest grant announced at this router's front door.
    pub fn latest_grant(&self) -> Option<GrantFrame> {
        self.board.as_ref().and_then(|b| b.current())
    }

    /// Per-worker up/down flags as last observed by the uplinks (a
    /// worker is "down" after a failed connect, until one succeeds).
    pub fn workers_up(&self) -> Vec<bool> {
        self.workers_up
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Stops accepting, drains the uplink queues, joins all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn acceptor_loop(
    listener: TcpListener,
    tx: channel::Sender<TcpStream>,
    stats: Arc<RouterStats>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => match tx.try_send(stream) {
                Ok(()) => stats.bump(&stats.accepted),
                // Full queue: shed, exactly like ingestd's front door.
                Err(TrySendError::Full(_)) => stats.bump(&stats.refused),
                Err(TrySendError::Disconnected(_)) => break,
            },
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    rx: channel::Receiver<TcpStream>,
    queues: &[ChunkQueue],
    ring: Arc<HashRing>,
    config: RouterConfig,
    stats: Arc<RouterStats>,
    stop: Arc<AtomicBool>,
    board: Option<Arc<GrantBoard>>,
) {
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(stream) => handle_client(
                stream,
                queues,
                &ring,
                &config,
                &stats,
                &stop,
                board.as_deref(),
            ),
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Writes one cumulative ack to the client: raw `u64` LE until a `TSGH`
/// hello upgraded the connection, a framed `TSAK` through the shared
/// writer afterwards (serialized against the grant board's pushes by
/// the writer's lock).
fn write_client_ack(stream: &mut TcpStream, framed: &Option<GrantSubscriber>, acked: u64) -> bool {
    match framed {
        Some(writer) => {
            // Stack payload + one writev under the lock: no per-ack
            // heap allocation, and the (prefix, payload) pair leaves in
            // a single syscall.
            let payload = grant::ack_payload(acked);
            match writer.lock() {
                Ok(mut w) => grant::write_control_frame(&mut *w, &payload)
                    .and_then(|()| w.flush())
                    .is_ok(),
                Err(_) => false,
            }
        }
        None => stream.write_all(&acked.to_le_bytes()).is_ok(),
    }
}

/// A client handler's frames for one worker in the current read round.
struct Staged {
    enc: BatchEncoder,
    frames: Vec<u8>,
    reports: u64,
}

/// Reads one client stream to EOF, routing every validated frame's
/// reports to their workers' queues, then waits for the worker acks and
/// acks the client. A `TSGH` hello upgrades the server→client direction
/// to control frames (framed acks, pushed grants) exactly as at a
/// worker's front door — the grant session is transparent to whether a
/// router sits in between.
#[allow(clippy::too_many_arguments)]
fn handle_client(
    mut stream: TcpStream,
    queues: &[ChunkQueue],
    ring: &HashRing,
    config: &RouterConfig,
    stats: &RouterStats,
    stop: &AtomicBool,
    board: Option<&GrantBoard>,
) {
    if stream.set_read_timeout(Some(config.read_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        stats.bump(&stats.io_errors);
        return;
    }
    let mut framed: Option<GrantSubscriber> = None;
    let tally = Arc::new(ConnTally::default());
    let mut decoder = StreamDecoder::new();
    // Batch-frame decode scratch, reused across frames.
    let mut batch_scratch = ReportBatch::new();
    let mut staged: Vec<Staged> = queues
        .iter()
        .map(|_| Staged {
            enc: BatchEncoder::new(config.batch_max),
            frames: Vec::new(),
            reports: 0,
        })
        .collect();
    // Reports enqueued toward workers (the denominator the EOF wait
    // compares `done` against).
    let mut sent = 0u64;
    // Batch-frame connections get cumulative acks opportunistically
    // mid-stream; single-frame connections keep the classic one-ack-at-
    // EOF exchange byte for byte.
    let mut saw_batch = false;
    let mut last_ack = 0u64;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match decoder.read_from(&mut stream) {
            Ok(0) => {
                // Mid-frame EOF is a protocol violation: no ack (routed
                // reports stand — each is an independent LDP message,
                // same rule as the single-node server).
                if decoder.pending() > 0 {
                    stats.bump(&stats.disconnected_protocol);
                    return;
                }
                // Wait for every routed report's fate, then ack the
                // worker-confirmed count. On timeout, ack what is
                // confirmed so far — under-acking is safe (the client
                // treats it as a shortfall), over-acking never happens.
                let deadline = Instant::now() + config.ack_timeout;
                while tally.done.load(Ordering::Acquire) < sent
                    && Instant::now() < deadline
                    && !stop.load(Ordering::SeqCst)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let acked = tally.acked.load(Ordering::Acquire);
                if !write_client_ack(&mut stream, &framed, acked) {
                    stats.bump(&stats.io_errors);
                    return;
                }
                let _ = stream.shutdown(Shutdown::Both);
                stats.bump(&stats.completed);
                return;
            }
            Ok(_) => {
                loop {
                    // A frame is valid when it decodes and each of its
                    // reports fits a forwarded frame (a push fails only
                    // for a report over `MAX_FRAME_LEN` once batched).
                    let valid = match decoder.next_wire_frame() {
                        Ok(Some(WireFrame::Single { report, payload })) => {
                            let s = &mut staged[ring.worker_for(report_key(&report, payload))];
                            s.reports += 1;
                            s.enc.push(&report, &mut s.frames)
                        }
                        Ok(Some(WireFrame::Batch { payload })) => {
                            saw_batch = true;
                            batch_scratch.decode_payload_into(payload).is_ok()
                                && batch_scratch.rows().all(|row| {
                                    let s = &mut staged[ring.worker_for(row_key(&row))];
                                    s.reports += 1;
                                    s.enc.push_row(&row, &mut s.frames)
                                })
                        }
                        Ok(Some(WireFrame::Hello { hello })) => {
                            // Upgrade to the grant session (idempotent
                            // on repeat hellos): framed acks from here,
                            // and — when subscribing — the current
                            // grant immediately plus every future
                            // announcement pushed mid-stream.
                            if framed.is_none() {
                                if hello.subscribes() && board.is_none() {
                                    stats.bump(&stats.disconnected_protocol);
                                    return;
                                }
                                let Ok(clone) = stream.try_clone() else {
                                    stats.bump(&stats.io_errors);
                                    return;
                                };
                                let _ = clone.set_write_timeout(Some(Duration::from_secs(1)));
                                let writer: GrantSubscriber = Arc::new(Mutex::new(clone));
                                if hello.subscribes() {
                                    if let Some(board) = board {
                                        board.subscribe(&writer);
                                    }
                                }
                                framed = Some(writer);
                            }
                            true
                        }
                        Ok(None) => break,
                        Err(_) => false,
                    };
                    if !valid {
                        // Nothing of this read round has been queued:
                        // every frame is validated before any chunk
                        // leaves the handler.
                        stats.bump(&stats.disconnected_protocol);
                        return;
                    }
                }
                // One chunk per worker per read round.
                for (queue, s) in queues.iter().zip(&mut staged) {
                    if s.reports == 0 {
                        continue;
                    }
                    s.enc.flush(&mut s.frames);
                    let reports = std::mem::take(&mut s.reports);
                    let chunk = Chunk {
                        frames: std::mem::take(&mut s.frames),
                        reports,
                        tally: Arc::clone(&tally),
                    };
                    match queue.push(chunk, config.enqueue_timeout, stop) {
                        Ok(()) => sent += reports,
                        Err(shed) => {
                            // The worker's queue stayed full past the
                            // timeout (worker stalled, queue backed
                            // up). Not counted in `sent`, so the client
                            // sees the shortfall.
                            stats
                                .routed_failed
                                .fetch_add(shed.reports, Ordering::Relaxed);
                        }
                    }
                }
                // Opportunistic mid-stream ack for batching clients:
                // cumulative, monotone, never ahead of worker acks —
                // the client takes the last one it reads.
                if saw_batch {
                    let acked = tally.acked.load(Ordering::Acquire);
                    if acked > last_ack {
                        last_ack = acked;
                        if !write_client_ack(&mut stream, &framed, acked) {
                            stats.bump(&stats.io_errors);
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                stats.bump(&stats.io_errors);
                return;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                stats.bump(&stats.io_errors);
                return;
            }
        }
    }
}

/// One worker's uplink: each busy period connects (home first, then
/// failover), streams every chunk queued until the queue idles for
/// `linger`, and settles them from the worker's acks. Exits on stop
/// once the queue is empty.
fn uplink_loop(
    home: usize,
    queue: &ChunkQueue,
    config: &RouterConfig,
    stats: &RouterStats,
    stop: &AtomicBool,
    workers_up: &[AtomicBool],
) {
    let mut chunks = Vec::new();
    loop {
        if chunks.is_empty() {
            queue.pop_all(Duration::from_millis(50), &mut chunks);
            if chunks.is_empty() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        }
        match connect_candidate(home, config, stats, stop, workers_up) {
            Some((w, stream)) => {
                let rerouted = w != home;
                if !busy_period(stream, &mut chunks, rerouted, queue, config, stats) {
                    stats.bump(&stats.io_errors);
                    workers_up[w].store(false, Ordering::Relaxed);
                    stats.bump(&stats.worker_down);
                }
                // Chunks still held were never written: the next pass
                // places them afresh.
            }
            None => {
                // Every worker unreachable: fail the chunks.
                for c in chunks.drain(..) {
                    c.tally.settle(0, c.reports, stats);
                }
            }
        }
    }
}

/// Connects for a busy period: the home worker first (with backoff),
/// then the rest around the ring (any deterministic order works —
/// placement does not affect the merged result).
fn connect_candidate(
    home: usize,
    config: &RouterConfig,
    stats: &RouterStats,
    stop: &AtomicBool,
    workers_up: &[AtomicBool],
) -> Option<(usize, TcpStream)> {
    let n = config.workers.len();
    for i in 0..n {
        let w = (home + i) % n;
        // A worker already marked down gets one quick probe; one
        // presumed up gets the full backoff sequence.
        let attempts = if workers_up[w].load(Ordering::Relaxed) {
            config.connect_attempts.max(1)
        } else {
            1
        };
        match connect_with_backoff(config.workers[w], attempts, config, stop) {
            Some(stream) => {
                workers_up[w].store(true, Ordering::Relaxed);
                return Some((w, stream));
            }
            None => {
                if workers_up[w].swap(false, Ordering::Relaxed) {
                    stats.bump(&stats.worker_down);
                }
            }
        }
    }
    None
}

/// Tries to connect up to `attempts` times with doubling backoff.
fn connect_with_backoff(
    addr: SocketAddr,
    attempts: u32,
    config: &RouterConfig,
    stop: &AtomicBool,
) -> Option<TcpStream> {
    let mut backoff = config.reconnect_backoff;
    for attempt in 0..attempts.max(1) {
        if stop.load(Ordering::SeqCst) && attempt > 0 {
            return None;
        }
        match TcpStream::connect_timeout(&addr, config.read_timeout) {
            Ok(stream) => return Some(stream),
            Err(_) => {
                if attempt + 1 < attempts {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(config.reconnect_backoff_max);
                }
            }
        }
    }
    None
}

/// A chunk written on the current uplink connection and not yet
/// settled.
struct Pending {
    /// Reports written on the connection up to and including this
    /// chunk.
    end: u64,
    reports: u64,
    tally: Arc<ConnTally>,
}

/// What the writer and the ack reader of one uplink connection share.
#[derive(Default)]
struct Inflight {
    /// Written chunks, oldest first.
    pending: VecDeque<Pending>,
    /// The worker's latest cumulative ack on this connection.
    acked: u64,
    /// The reader has stopped: the connection is over.
    closed: bool,
}

/// One busy period on one worker connection. Writes `chunks`, then
/// every chunk queued after them, back to back, while a reader thread
/// settles them from the worker's cumulative acks as those arrive.
/// Ends when the queue has stayed empty for `linger` (half-close, read
/// the final ack) or on the first error. Settles every chunk it wrote;
/// chunks left in `chunks` were never written. Returns whether the
/// connection ended cleanly.
fn busy_period(
    mut stream: TcpStream,
    chunks: &mut Vec<Chunk>,
    rerouted: bool,
    queue: &ChunkQueue,
    config: &RouterConfig,
    stats: &RouterStats,
) -> bool {
    let reader = stream.try_clone();
    let (Ok(reader), Ok(()), Ok(()), Ok(())) = (
        reader,
        stream.set_nodelay(true),
        stream.set_read_timeout(Some(config.read_timeout)),
        stream.set_write_timeout(Some(config.read_timeout)),
    ) else {
        // Nothing was written: the chunks may go elsewhere.
        return false;
    };
    let inflight = Mutex::new(Inflight::default());
    let half_closed = AtomicBool::new(false);
    let (write_ok, read_clean) = std::thread::scope(|scope| {
        let acks = scope.spawn(|| read_acks(reader, &inflight, &half_closed, stats));
        let mut written = 0u64;
        let write_ok = loop {
            {
                let mut f = inflight.lock().expect(INFLIGHT_POISONED);
                // Once the worker has gone, later chunks stay unwritten.
                // The first write goes out regardless: the connect just
                // succeeded, so its failure is the write's to report.
                if f.closed && written > 0 {
                    break true;
                }
                for c in chunks.iter() {
                    written += c.reports;
                    f.pending.push_back(Pending {
                        end: written,
                        reports: c.reports,
                        tally: Arc::clone(&c.tally),
                    });
                }
            }
            if rerouted {
                stats
                    .rerouted_batches
                    .fetch_add(chunks.len() as u64, Ordering::Relaxed);
            }
            let mut io: Vec<IoSlice<'_>> = chunks.iter().map(|c| IoSlice::new(&c.frames)).collect();
            let wrote = trajshare_core::vio::write_all_vectored(&mut stream, &mut io).is_ok();
            chunks.clear();
            if !wrote {
                break false;
            }
            queue.pop_all(config.linger, chunks);
            if chunks.is_empty() {
                break true;
            }
        };
        if write_ok {
            half_closed.store(true, Ordering::SeqCst);
            let _ = stream.shutdown(Shutdown::Write);
        } else {
            // Wakes the reader: nothing more will be acked.
            let _ = stream.shutdown(Shutdown::Both);
        }
        (write_ok, acks.join().unwrap_or(false))
    });
    // Whatever the acks did not cover settles FIFO against the last
    // cumulative ack: the worker ingests frames in write order, so the
    // ack counts a prefix of what was written. The rest is failed —
    // never resent, since the worker may hold any of it.
    let f = inflight.into_inner().expect(INFLIGHT_POISONED);
    for p in f.pending {
        let start = p.end - p.reports;
        p.tally.settle(
            f.acked.saturating_sub(start).min(p.reports),
            p.reports,
            stats,
        );
    }
    write_ok && read_clean
}

/// Reads one uplink connection's cumulative acks until EOF, settling
/// each written chunk as soon as an ack covers all of it. Returns
/// whether the connection ended cleanly: EOF after the writer
/// half-closed, with at least one ack seen (a worker that closes
/// without acking has failed, as does one that closes early).
fn read_acks(
    mut stream: TcpStream,
    inflight: &Mutex<Inflight>,
    half_closed: &AtomicBool,
    stats: &RouterStats,
) -> bool {
    let mut buf = [0u8; 1024];
    let mut partial = [0u8; 8];
    let mut have = 0usize;
    let mut seen = false;
    let clean = loop {
        match stream.read(&mut buf) {
            Ok(0) => break half_closed.load(Ordering::SeqCst) && seen && have == 0,
            Ok(n) => {
                let mut latest = None;
                for &b in &buf[..n] {
                    partial[have] = b;
                    have += 1;
                    if have == 8 {
                        have = 0;
                        latest = Some(u64::from_le_bytes(partial));
                    }
                }
                let Some(ack) = latest else { continue };
                seen = true;
                let mut f = inflight.lock().expect(INFLIGHT_POISONED);
                f.acked = f.acked.max(ack);
                while f.pending.front().is_some_and(|p| p.end <= f.acked) {
                    let p = f.pending.pop_front().expect("front() was Some");
                    p.tally.settle(p.reports, p.reports, stats);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break false,
        }
    };
    inflight.lock().expect(INFLIGHT_POISONED).closed = true;
    if !clean {
        // Unblocks a writer stuck on a dead or stalled worker.
        let _ = stream.shutdown(Shutdown::Both);
    }
    clean
}
