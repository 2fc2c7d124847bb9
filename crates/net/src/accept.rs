//! One accept thread for every in-process listener.
//!
//! An in-process daemon ([`crate::daemon::spawn_local`]) or a
//! [`crate::chaos::ChaosProxy`] registers its listener here instead of
//! parking a blocking accept thread of its own. A single thread, started
//! on first use and kept for the life of the process, waits on one
//! [`Poller`] and runs the listener's handler for every accepted
//! connection. Registering returns a [`Listening`] guard; dropping it
//! closes the listener (connections already accepted live on).
//!
//! Handlers run on the accept thread, so they may block only on work the
//! kernel finishes without it: a loopback connect completes through the
//! target's listen backlog even while that target's listener waits its
//! turn here, a read does not.

use std::collections::HashMap;
use std::io::{self, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::sys::{Event, Interest, Poller, Waker};

/// Poller token of the registration waker (listener tokens count up
/// from zero and never reach it).
const WAKER_TOKEN: u64 = u64::MAX;
/// Most connections accepted per readiness event before the other
/// listeners get a turn (level-triggered epoll re-signals the rest).
const ACCEPTS_PER_EVENT: usize = 64;

type Handler = Box<dyn Fn(TcpStream) + Send + Sync>;

struct Listener {
    socket: TcpListener,
    handler: Handler,
}

#[derive(Default)]
struct Registry {
    next_token: u64,
    live: HashMap<u64, Arc<Listener>>,
    /// Registered but not yet in the poller. Holding the `Arc` keeps the
    /// fd open until the accept thread adds it, so a guard dropped in
    /// between cannot let the number be reused under the poller.
    pending: Vec<(u64, Arc<Listener>)>,
}

struct Acceptor {
    registry: Arc<Mutex<Registry>>,
    waker: Waker,
}

/// Keeps a listener registered with the accept thread; dropping it
/// closes the listener.
pub(crate) struct Listening {
    token: u64,
}

impl Listening {
    /// Keeps the listener open for the life of the process.
    pub(crate) fn keep_forever(self) {
        std::mem::forget(self);
    }
}

impl Drop for Listening {
    fn drop(&mut self) {
        if let Some(Ok(acceptor)) = ACCEPTOR.get() {
            // Closing the last reference closes the fd, which also drops
            // it from the poller's set.
            acceptor.registry.lock().live.remove(&self.token);
        }
    }
}

static ACCEPTOR: OnceLock<io::Result<Acceptor>> = OnceLock::new();

/// Serves `socket` from the shared accept thread: `handler` runs once
/// per accepted connection, on that thread (see the module docs for what
/// it may block on).
pub(crate) fn listen(
    socket: TcpListener,
    handler: impl Fn(TcpStream) + Send + Sync + 'static,
) -> io::Result<Listening> {
    let acceptor = ACCEPTOR
        .get_or_init(start)
        .as_ref()
        .map_err(|e| io::Error::new(e.kind(), e.to_string()))?;
    socket.set_nonblocking(true)?;
    let listener = Arc::new(Listener {
        socket,
        handler: Box::new(handler),
    });
    let token = {
        let mut reg = acceptor.registry.lock();
        let token = reg.next_token;
        reg.next_token += 1;
        reg.live.insert(token, Arc::clone(&listener));
        reg.pending.push((token, listener));
        token
    };
    acceptor.waker.wake();
    Ok(Listening { token })
}

fn start() -> io::Result<Acceptor> {
    let mut poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.add(waker.raw_fd(), WAKER_TOKEN, Interest::READ)?;
    let registry = Arc::new(Mutex::new(Registry::default()));
    let acceptor = Acceptor {
        registry: Arc::clone(&registry),
        waker: waker.clone(),
    };
    std::thread::Builder::new()
        .name("bskel-accept".into())
        .spawn(move || run(&registry, &mut poller, &waker))?;
    Ok(acceptor)
}

fn run(registry: &Mutex<Registry>, poller: &mut Poller, waker: &Waker) {
    let mut events: Vec<Event> = Vec::with_capacity(64);
    loop {
        let pending = std::mem::take(&mut registry.lock().pending);
        for (token, listener) in pending {
            // A failed add leaves the listener unserved; its connects
            // queue in the backlog and are refused once it fills.
            let _ = poller.add(listener.socket.as_raw_fd(), token, Interest::READ);
        }
        events.clear();
        if poller.wait(&mut events, None).is_err() {
            // `wait` retries EINTR itself; anything else means the
            // poller is broken and nothing more can be accepted.
            return;
        }
        for ev in &events {
            if ev.token == WAKER_TOKEN {
                waker.drain();
                continue;
            }
            let Some(listener) = registry.lock().live.get(&ev.token).cloned() else {
                continue; // closed since the event was queued
            };
            for _ in 0..ACCEPTS_PER_EVENT {
                match listener.socket.accept() {
                    Ok((stream, _)) => {
                        // Handlers expect blocking sockets.
                        if stream.set_nonblocking(false).is_ok() {
                            (listener.handler)(stream);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // WouldBlock: drained. Anything else (fd
                    // exhaustion): level-triggered epoll retries.
                    Err(_) => break,
                }
            }
        }
    }
}
