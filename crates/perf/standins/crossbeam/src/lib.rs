//! Offline stand-in for `crossbeam`: an unbounded multi-producer,
//! multi-consumer `channel`, which is all `optrep-net`'s in-memory
//! transport uses. The daemon path the benchmark measures never touches
//! it; it exists so `optrep-net` compiles.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    impl<T> Shared<T> {
        /// A panic while holding the lock cannot leave the queue torn
        /// (every update is one push, pop or counter step).
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            match self.state.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            }
        }
    }

    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    impl<T> Sender<T> {
        /// # Errors
        ///
        /// Hands the message back once every receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.0.lock();
            if state.receivers == 0 {
                return Err(SendError(msg));
            }
            state.queue.push_back(msg);
            drop(state);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.senders -= 1;
            let last = state.senders == 0;
            drop(state);
            if last {
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// # Errors
        ///
        /// `Empty` when nothing is queued, `Disconnected` once nothing is
        /// queued and every sender is gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.0.lock();
            match state.queue.pop_front() {
                Some(msg) => Ok(msg),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// # Errors
        ///
        /// `Disconnected` once nothing is queued and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.lock();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = match self.0.ready.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        }

        /// # Errors
        ///
        /// `Timeout` if nothing arrived in time, `Disconnected` as
        /// [`Receiver::recv`].
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.0.lock();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                state = match self.0.ready.wait_timeout(state, left) {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.lock().receivers -= 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn messages_cross_threads_in_order_and_disconnect_is_seen() {
            let (tx, rx) = unbounded::<u32>();
            let keep = rx.clone();
            let worker = std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(n) = rx.recv_timeout(Duration::from_secs(5)) {
                    got.push(n);
                }
                got
            });
            for n in 0..100 {
                tx.send(n).expect("a receiver is alive");
            }
            drop(tx);
            assert_eq!(worker.join().expect("worker"), (0..100).collect::<Vec<_>>());
            assert_eq!(keep.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn recv_timeout_times_out_while_a_sender_lives() {
            let (_tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
        }
    }
}
