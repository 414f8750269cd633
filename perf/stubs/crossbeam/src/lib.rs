//! Stand-in for `crossbeam` 0.8 over the standard library: exactly what
//! `sgp-partition::exec` uses — `channel::bounded` with blocking
//! `send`/`recv` that err once the other side is gone, and
//! `thread::scope` whose spawned closures receive the scope.

/// Bounded MPSC channels over `std::sync::mpsc::sync_channel`.
pub mod channel {
    use std::sync::mpsc;

    pub use std::sync::mpsc::{RecvError, SendError};

    /// Sending half; cloneable.
    #[derive(Debug)]
    pub struct Sender<T>(mpsc::SyncSender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    /// Receiving half.
    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    /// A channel holding at most `cap` messages; `cap = 0` is a rendezvous.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(tx), Receiver(rx))
    }

    impl<T> Sender<T> {
        /// Blocks while the channel is full; errs once the receiver is dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg)
        }
    }

    impl<T> Receiver<T> {
        /// Blocks while the channel is empty; errs once it is empty and
        /// every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }
    }
}

/// Scoped threads over `std::thread::scope`.
pub mod thread {
    use std::any::Any;

    /// Handle the scope closure and every spawned closure receive.
    #[derive(Clone, Copy)]
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Join handle of a scoped thread.
    pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a thread that may borrow from the enclosing scope.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle(inner.spawn(move || f(&Scope { inner })))
        }
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Waits for the thread; `Err` carries its panic payload.
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.0.join()
        }
    }

    /// Runs `f` with a scope; every spawned thread is joined before this
    /// returns. A panic in an unjoined child resurfaces as a panic here
    /// (the real crate returns `Err`; every call site `expect`s it).
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|inner| f(&Scope { inner })))
    }
}
