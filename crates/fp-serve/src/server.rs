//! The TCP front end over an [`Engine`]: a sharded event loop. The
//! acceptor round-robins connections across poll-loop shards
//! ([`crate::shard`]); requests are admitted with shedding (typed
//! `retry_after_ms` on overload) and shutdown drains every accepted job
//! before closing.
//!
//! The poll shim is unix-only, so other targets run a thread-per-connection
//! front end instead: one reader and one writer thread per connection,
//! blocking admission (submitters stall while the queue is full).

use crate::engine::{Engine, EngineStats, ServeConfig};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Request/connection accounting aggregated over the whole front end.
///
/// After [`Server::shutdown`] the books balance:
/// `accepted == completed + shed` (every decoded request got exactly one
/// answer; `malformed` lines are answered too but counted separately).
/// On non-unix targets (no event loop) the fields are derived from
/// [`EngineStats`] — `conns` and `malformed` are not tracked there and
/// read 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeAccounting {
    /// Connections ever accepted.
    pub conns: u64,
    /// Well-formed requests decoded off the wire.
    pub accepted: u64,
    /// Non-shed responses delivered (success, degraded, failure,
    /// coalesced fan-outs).
    pub completed: u64,
    /// Load-shed responses delivered.
    pub shed: u64,
    /// Malformed lines answered with `ok: false`.
    pub malformed: u64,
}

/// What a completed [`Server::shutdown`] observed: the front-end books
/// and the engine books, both final (every shard and worker joined).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShutdownReport {
    /// Final front-end accounting (`accepted == completed + shed`).
    pub accounting: ServeAccounting,
    /// Final engine accounting (`submitted == answered + shed`).
    pub engine: EngineStats,
}

/// A line-delimited TCP front end over an [`Engine`].
///
/// Malformed lines get an `ok: false` response instead of killing the
/// connection.
pub struct Server {
    engine: Option<Engine>,
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    /// Cross-thread shard handles; kept after teardown so accounting
    /// stays readable once the poll threads are gone.
    #[cfg(unix)]
    shard_shareds: Vec<Arc<crate::shard::ShardShared>>,
    #[cfg(unix)]
    shard_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// accepting connections backed by a fresh engine and the sharded event
    /// loop (non-unix targets get the thread-per-connection front end — the
    /// poll shim is unix-only).
    ///
    /// # Errors
    ///
    /// Propagates bind/shard-setup errors.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        #[cfg(unix)]
        let shard_count = config.shards.max(1);
        let engine = Engine::start(config);

        #[cfg(unix)]
        let mut shard_shareds = Vec::new();
        #[cfg(unix)]
        let mut shard_threads = Vec::new();
        #[cfg(unix)]
        let acceptor = {
            for index in 0..shard_count {
                let handle = crate::shard::spawn(index, Arc::clone(engine.shared()))?;
                shard_shareds.push(handle.shared);
                shard_threads.push(handle.thread);
            }
            let targets = shard_shareds.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for (i, stream) in listener.incoming().enumerate() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match stream {
                        Ok(stream) => targets[i % targets.len()].adopt(stream),
                        Err(_) => break,
                    }
                }
            })
        };
        #[cfg(not(unix))]
        let acceptor = threaded::spawn_acceptor(listener, engine.client(), Arc::clone(&stop));
        Ok(Server {
            engine: Some(engine),
            local,
            stop,
            acceptor: Some(acceptor),
            #[cfg(unix)]
            shard_shareds,
            #[cfg(unix)]
            shard_threads,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// `(hits, misses)` of the engine's solution cache.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64) {
        self.engine.as_ref().map_or((0, 0), Engine::cache_stats)
    }

    /// `(warm, cold)` branch-and-bound node counts of the engine's solver.
    #[must_use]
    pub fn solver_stats(&self) -> (u64, u64) {
        self.engine.as_ref().map_or((0, 0), Engine::solver_stats)
    }

    /// `(rows_tightened, binaries_fixed, cuts_added)` from the engine's
    /// root model-strengthening layer.
    #[must_use]
    pub fn strengthening_stats(&self) -> (u64, u64, u64) {
        self.engine
            .as_ref()
            .map_or((0, 0, 0), Engine::strengthening_stats)
    }

    /// `(refactorizations, eta_updates)` of the engine's sparse revised
    /// simplex basis work.
    #[must_use]
    pub fn factorization_stats(&self) -> (u64, u64) {
        self.engine
            .as_ref()
            .map_or((0, 0), Engine::factorization_stats)
    }

    /// The engine's job accounting (submitted / answered / shed /
    /// coalesced).
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.as_ref().map_or(
            EngineStats {
                submitted: 0,
                answered: 0,
                shed: 0,
                coalesced: 0,
            },
            Engine::stats,
        )
    }

    /// Front-end accounting (see [`ServeAccounting`] for the invariant
    /// and the non-unix caveats).
    #[must_use]
    pub fn accounting(&self) -> ServeAccounting {
        self.accounting_with(self.engine_stats())
    }

    #[cfg(unix)]
    fn accounting_with(&self, _engine: EngineStats) -> ServeAccounting {
        let mut acc = ServeAccounting::default();
        for s in &self.shard_shareds {
            let (conns, accepted, completed, shed, malformed) = s.counters();
            acc.conns += conns;
            acc.accepted += accepted;
            acc.completed += completed;
            acc.shed += shed;
            acc.malformed += malformed;
        }
        acc
    }

    #[cfg(not(unix))]
    fn accounting_with(&self, engine: EngineStats) -> ServeAccounting {
        ServeAccounting {
            conns: 0,
            accepted: engine.submitted,
            completed: engine.answered,
            shed: engine.shed,
            malformed: 0,
        }
    }

    /// Blocks until the acceptor exits (it only exits on shutdown or a
    /// listener error) — the `floorplan serve` foreground mode.
    pub fn wait(mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting, drains every accepted job (answering it), joins
    /// shards and workers, and returns the final books.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.teardown()
    }

    fn teardown(&mut self) -> ShutdownReport {
        self.stop_accepting();
        // Ordering matters: shards must stop reading (no new accepts)
        // before the queue closes, and workers must stay alive while the
        // shards wait for their in-flight answers.
        #[cfg(unix)]
        for s in &self.shard_shareds {
            s.start_drain();
        }
        if let Some(engine) = self.engine.as_ref() {
            engine.close_queue();
        }
        #[cfg(unix)]
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        let engine = self
            .engine
            .take()
            .map_or_else(EngineStats::default, Engine::shutdown);
        ShutdownReport {
            accounting: self.accounting_with(engine),
            engine,
        }
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection. A wildcard
        // bind address (0.0.0.0 / [::]) is not a connectable destination
        // on every platform, so aim at the same-family loopback instead.
        let mut target = self.local;
        if target.ip().is_unspecified() {
            target.set_ip(match target {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(target);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.teardown();
    }
}

/// The thread-per-connection front end of targets without the poll shim.
#[cfg(not(unix))]
mod threaded {
    use crate::engine::Client;
    use crate::protocol::{JobRequest, JobResponse};
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::thread::JoinHandle;

    /// Accepts until `stop` is set, spawning one connection handler each.
    pub(super) fn spawn_acceptor(
        listener: TcpListener,
        client: Client,
        stop: Arc<AtomicBool>,
    ) -> JoinHandle<()> {
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        // Responses are single small lines in a
                        // request-reply exchange; Nagle + delayed ACK
                        // would add tens of milliseconds to each.
                        let _ = stream.set_nodelay(true);
                        let client = client.clone();
                        std::thread::spawn(move || handle_connection(stream, &client));
                    }
                    Err(_) => break,
                }
            }
        })
    }

    /// The per-connection loop: a reader thread (this one) decoding lines
    /// and a writer thread funneling responses (possibly out of request
    /// order) back.
    fn handle_connection(stream: TcpStream, client: &Client) {
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let (tx, rx) = mpsc::channel::<JobResponse>();
        let mut write_half = stream;
        let writer = std::thread::spawn(move || {
            while let Ok(resp) = rx.recv() {
                if writeln!(write_half, "{}", resp.encode()).is_err() {
                    break;
                }
                let _ = write_half.flush();
            }
        });

        for line in BufReader::new(read_half).lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            match JobRequest::decode(&line) {
                Ok(req) => client.submit_with(req, tx.clone()),
                Err(e) => {
                    // Echo the id back when it is at least parseable so the
                    // caller can correlate the failure.
                    let id = fp_obs::parse_line(&line)
                        .ok()
                        .and_then(|p| p.num("id"))
                        .unwrap_or(0.0) as u64;
                    let _ = tx.send(JobResponse::failure(id, format!("bad request: {e}")));
                }
            }
        }
        // Reader done: once every in-flight job of this connection has
        // answered, the last sender drops and the writer exits.
        drop(tx);
        let _ = writer.join();
    }
}
