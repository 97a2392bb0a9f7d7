//! Facade MPMC channel, built once over the facade [`Mutex`] and
//! [`Condvar`].
//!
//! Because the only blocking it performs goes through facade
//! primitives, the channel is fully explorable under a model checker
//! (every send, receive, and disconnect is a scheduling point, and a
//! timed receive waits on the model's virtual clock). The API mirrors the
//! `crossbeam-channel` subset the cluster scheduler uses: unbounded,
//! multi-producer, cloneable receivers, disconnect-aware errors.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::mutex::{Condvar, Mutex};
use crate::runtime::McEvent;
use crate::time::now_nanos;

/// The sending half of a channel returned by [`unbounded`].
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// The receiving half of a channel returned by [`unbounded`].
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

/// A new unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
        cv: Condvar::new(),
    });
    (Sender { chan: Arc::clone(&chan) }, Receiver { chan })
}

impl<T> Sender<T> {
    /// Enqueue `value`, failing (and handing it back) if every receiver
    /// has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.chan.state.lock();
        if st.receivers == 0 {
            if let Some((rt, id)) = st.model_info() {
                rt.record(McEvent::SendAfterClose { channel: id });
            }
            return Err(SendError(value));
        }
        st.queue.push_back(value);
        drop(st);
        self.chan.cv.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().senders += 1;
        Sender { chan: Arc::clone(&self.chan) }
    }
}

impl<T> Drop for Sender<T> {
    /// Give up this handle's claim on the channel; the last sender wakes
    /// every blocked receiver, so it observes the disconnect instead of
    /// sleeping forever.
    fn drop(&mut self) {
        let mut st = self.chan.state.lock();
        st.senders -= 1;
        let disconnected = st.senders == 0;
        drop(st);
        if disconnected {
            self.chan.cv.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeue a value, blocking until one arrives or every sender is
    /// dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.chan.state.lock();
        loop {
            if let Some(value) = st.queue.pop_front() {
                return Ok(value);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            self.chan.cv.wait(&mut st);
        }
    }

    /// Dequeue a value, blocking for at most `timeout` of (possibly
    /// virtual) time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = now_nanos().saturating_add(crate::time::duration_to_nanos(timeout));
        let mut st = self.chan.state.lock();
        loop {
            if let Some(value) = st.queue.pop_front() {
                return Ok(value);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = now_nanos();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let remaining = Duration::from_nanos(deadline - now);
            self.chan.cv.wait_timeout(&mut st, remaining);
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().receivers += 1;
        Receiver { chan: Arc::clone(&self.chan) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.chan.state.lock();
        st.receivers -= 1;
        drop(st);
    }
}

/// The channel is closed: every [`Receiver`] was dropped. Hands the
/// unsent value back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a closed channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// The channel is empty and every [`Sender`] was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and closed channel")
    }
}

impl std::error::Error for RecvError {}

/// Why [`Receiver::recv_timeout`] returned no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed first.
    Timeout,
    /// Every sender was dropped and the queue is drained.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("channel receive timed out"),
            RecvTimeoutError::Disconnected => f.write_str("channel is empty and closed"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}
