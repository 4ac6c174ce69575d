//! Drop-in shims for the `std::sync` primitives the concurrency core
//! uses. Outside a model execution they behave exactly like `std` (the
//! shimmed crates only compile against these under the `shim` feature
//! — see [`crate::alias`] — and even then nothing changes until a
//! scheduler is installed on the thread). Inside [`crate::model::explore`] every
//! operation becomes a scheduler decision point: acquisition, waiting
//! and waking are *modeled* so the scheduler can explore interleavings
//! and detect deadlocks/lost wakes, while the real `std` primitive
//! underneath still holds the data (and its poison bit).

use crate::sched::{self, ObjKind};
use std::time::Duration;

pub use std::sync::atomic::Ordering;
pub use std::sync::Arc;
pub use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};

fn addr_of<T: ?Sized>(x: &T) -> usize {
    x as *const T as *const () as usize
}

// ---------------------------------------------------------------- Mutex

/// Shimmed [`std::sync::Mutex`]. Lock acquisition is a scheduler
/// decision point under a model; identical to `std` otherwise.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex`]; releases the model-level ownership on drop.
pub struct MutexGuard<'a, T> {
    mx: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    model: bool,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    fn addr(&self) -> usize {
        addr_of(self)
    }

    fn wrap<'a>(
        &'a self,
        r: Result<std::sync::MutexGuard<'a, T>, PoisonError<std::sync::MutexGuard<'a, T>>>,
        model: bool,
    ) -> LockResult<MutexGuard<'a, T>> {
        match r {
            Ok(g) => Ok(MutexGuard {
                mx: self,
                inner: Some(g),
                model,
            }),
            Err(p) => Err(PoisonError::new(MutexGuard {
                mx: self,
                inner: Some(p.into_inner()),
                model,
            })),
        }
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match sched::current() {
            None => self.wrap(self.inner.lock(), false),
            Some(h) => {
                let model = h.acquire_write(self.addr(), ObjKind::Mutex);
                if model {
                    self.wrap(sched::real_lock_after_model(&self.inner), true)
                } else {
                    // Abort degrade: unwinding peers release the real
                    // lock shortly.
                    self.wrap(self.inner.lock(), false)
                }
            }
        }
    }

    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        match sched::current() {
            None => match self.inner.try_lock() {
                Ok(g) => Ok(MutexGuard {
                    mx: self,
                    inner: Some(g),
                    model: false,
                }),
                Err(TryLockError::Poisoned(p)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                        mx: self,
                        inner: Some(p.into_inner()),
                        model: false,
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            },
            Some(h) => match h.try_acquire_write(self.addr(), ObjKind::Mutex) {
                Some(true) => match self.wrap(sched::real_lock_after_model(&self.inner), true) {
                    Ok(g) => Ok(g),
                    Err(p) => Err(TryLockError::Poisoned(p)),
                },
                Some(false) => Err(TryLockError::WouldBlock),
                None => match self.inner.try_lock() {
                    Ok(g) => Ok(MutexGuard {
                        mx: self,
                        inner: Some(g),
                        model: false,
                    }),
                    Err(TryLockError::Poisoned(p)) => {
                        Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                            mx: self,
                            inner: Some(p.into_inner()),
                            model: false,
                        })))
                    }
                    Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
                },
            },
        }
    }

    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }

    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<'a, T> std::ops::Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the real lock")
    }
}

impl<'a, T> std::ops::DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the real lock")
    }
}

impl<'a, T> Drop for MutexGuard<'a, T> {
    fn drop(&mut self) {
        // Real unlock first, then model release: a model thread that
        // wins the model acquire immediately after must find the real
        // lock free.
        drop(self.inner.take());
        if self.model {
            if let Some(h) = sched::current() {
                h.release(self.mx.addr(), true);
            }
        }
    }
}

impl<'a, T: std::fmt::Debug> std::fmt::Debug for MutexGuard<'a, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

// -------------------------------------------------------------- Condvar

/// Result of a [`Condvar::wait_timeout`]; mirrors std's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Shimmed [`std::sync::Condvar`]. Under a model, waits park in the
/// scheduler (timed waits expire only at quiescence — virtual-time
/// semantics) and notifies wake parked model threads FIFO.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    fn addr(&self) -> usize {
        addr_of(self)
    }

    fn wait_model<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        h: &sched::Handle,
        timed: bool,
    ) -> (LockResult<MutexGuard<'a, T>>, bool) {
        let mx = guard.mx;
        let was_model = guard.model;
        let mut guard = guard;
        drop(guard.inner.take());
        guard.model = false; // neutralize: the wait owns the release
        drop(guard);
        if !was_model {
            // Degraded guard (abort in progress): don't park — return
            // spuriously so the caller's predicate loop re-checks.
            return (mx.wrap(mx.inner.lock(), false), false);
        }
        let (timed_out, model) = h.cv_wait(self.addr(), mx.addr(), timed);
        let relocked = if model {
            mx.wrap(sched::real_lock_after_model(&mx.inner), true)
        } else {
            mx.wrap(mx.inner.lock(), false)
        };
        (relocked, timed_out)
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match sched::current() {
            None => {
                let mx = guard.mx;
                let mut guard = guard;
                let real = guard.inner.take().expect("guard holds the real lock");
                guard.model = false;
                drop(guard);
                mx.wrap(self.inner.wait(real), false)
            }
            Some(h) => self.wait_model(guard, &h, false).0,
        }
    }

    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        match sched::current() {
            None => {
                let mx = guard.mx;
                let mut guard = guard;
                let real = guard.inner.take().expect("guard holds the real lock");
                guard.model = false;
                drop(guard);
                match self.inner.wait_timeout(real, dur) {
                    Ok((g, r)) => Ok((
                        MutexGuard {
                            mx,
                            inner: Some(g),
                            model: false,
                        },
                        WaitTimeoutResult(r.timed_out()),
                    )),
                    Err(p) => {
                        let (g, r) = p.into_inner();
                        Err(PoisonError::new((
                            MutexGuard {
                                mx,
                                inner: Some(g),
                                model: false,
                            },
                            WaitTimeoutResult(r.timed_out()),
                        )))
                    }
                }
            }
            Some(h) => {
                let (relocked, timed_out) = self.wait_model(guard, &h, true);
                match relocked {
                    Ok(g) => Ok((g, WaitTimeoutResult(timed_out))),
                    Err(p) => Err(PoisonError::new((
                        p.into_inner(),
                        WaitTimeoutResult(timed_out),
                    ))),
                }
            }
        }
    }

    pub fn notify_one(&self) {
        match sched::current() {
            None => self.inner.notify_one(),
            Some(h) => h.notify(self.addr(), false),
        }
    }

    pub fn notify_all(&self) {
        match sched::current() {
            None => self.inner.notify_all(),
            Some(h) => h.notify(self.addr(), true),
        }
    }
}

// --------------------------------------------------------------- RwLock

/// Shimmed [`std::sync::RwLock`] (model-level reader/writer exclusion).
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: std::sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T> {
    lk: &'a RwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    model: bool,
}

pub struct RwLockWriteGuard<'a, T> {
    lk: &'a RwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    model: bool,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    fn addr(&self) -> usize {
        addr_of(self)
    }

    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        let model = match sched::current() {
            None => false,
            Some(h) => h.acquire_read(self.addr(), ObjKind::Rwlock),
        };
        let r = if model {
            match self.inner.try_read() {
                Ok(g) => Ok(g),
                Err(TryLockError::Poisoned(p)) => Err(p),
                Err(TryLockError::WouldBlock) => self.inner.read(),
            }
        } else {
            self.inner.read()
        };
        match r {
            Ok(g) => Ok(RwLockReadGuard {
                lk: self,
                inner: Some(g),
                model,
            }),
            Err(p) => Err(PoisonError::new(RwLockReadGuard {
                lk: self,
                inner: Some(p.into_inner()),
                model,
            })),
        }
    }

    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        let model = match sched::current() {
            None => false,
            Some(h) => h.acquire_write(self.addr(), ObjKind::Rwlock),
        };
        let r = if model {
            match self.inner.try_write() {
                Ok(g) => Ok(g),
                Err(TryLockError::Poisoned(p)) => Err(p),
                Err(TryLockError::WouldBlock) => self.inner.write(),
            }
        } else {
            self.inner.write()
        };
        match r {
            Ok(g) => Ok(RwLockWriteGuard {
                lk: self,
                inner: Some(g),
                model,
            }),
            Err(p) => Err(PoisonError::new(RwLockWriteGuard {
                lk: self,
                inner: Some(p.into_inner()),
                model,
            })),
        }
    }

    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<'a, T> std::ops::Deref for RwLockReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the real lock")
    }
}

impl<'a, T> Drop for RwLockReadGuard<'a, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if self.model {
            if let Some(h) = sched::current() {
                h.release(self.lk.addr(), false);
            }
        }
    }
}

impl<'a, T> std::ops::Deref for RwLockWriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the real lock")
    }
}

impl<'a, T> std::ops::DerefMut for RwLockWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the real lock")
    }
}

impl<'a, T> Drop for RwLockWriteGuard<'a, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if self.model {
            if let Some(h) = sched::current() {
                h.release(self.lk.addr(), true);
            }
        }
    }
}

// -------------------------------------------------------------- Atomics

fn atomic_point() {
    if let Some(h) = sched::current() {
        h.preempt();
    }
}

/// Shimmed [`std::sync::atomic::AtomicBool`]: every access is a
/// scheduler decision point under a model.
#[derive(Debug, Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    pub const fn new(v: bool) -> Self {
        AtomicBool {
            inner: std::sync::atomic::AtomicBool::new(v),
        }
    }

    pub fn load(&self, order: Ordering) -> bool {
        atomic_point();
        self.inner.load(order)
    }

    pub fn store(&self, v: bool, order: Ordering) {
        atomic_point();
        self.inner.store(v, order)
    }

    pub fn swap(&self, v: bool, order: Ordering) -> bool {
        atomic_point();
        self.inner.swap(v, order)
    }

    pub fn fetch_or(&self, v: bool, order: Ordering) -> bool {
        atomic_point();
        self.inner.fetch_or(v, order)
    }

    pub fn fetch_and(&self, v: bool, order: Ordering) -> bool {
        atomic_point();
        self.inner.fetch_and(v, order)
    }

    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        atomic_point();
        self.inner.compare_exchange(current, new, success, failure)
    }
}

macro_rules! atomic_int_shim {
    ($(#[$meta:meta])* $name:ident, $std:ty, $prim:ty) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            pub const fn new(v: $prim) -> Self {
                $name { inner: <$std>::new(v) }
            }

            pub fn load(&self, order: Ordering) -> $prim {
                atomic_point();
                self.inner.load(order)
            }

            pub fn store(&self, v: $prim, order: Ordering) {
                atomic_point();
                self.inner.store(v, order)
            }

            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                atomic_point();
                self.inner.swap(v, order)
            }

            pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                atomic_point();
                self.inner.fetch_add(v, order)
            }

            pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                atomic_point();
                self.inner.fetch_sub(v, order)
            }

            pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                atomic_point();
                self.inner.fetch_max(v, order)
            }

            pub fn fetch_min(&self, v: $prim, order: Ordering) -> $prim {
                atomic_point();
                self.inner.fetch_min(v, order)
            }

            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                atomic_point();
                self.inner.compare_exchange(current, new, success, failure)
            }
        }
    };
}

atomic_int_shim!(
    /// Shimmed [`std::sync::atomic::AtomicUsize`].
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);
atomic_int_shim!(
    /// Shimmed [`std::sync::atomic::AtomicU32`].
    AtomicU32,
    std::sync::atomic::AtomicU32,
    u32
);
atomic_int_shim!(
    /// Shimmed [`std::sync::atomic::AtomicU64`].
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64
);

#[cfg(test)]
mod tests {
    use super::*;

    // Without an installed scheduler the shims must behave exactly like
    // std — these run on plain test threads.

    #[test]
    fn mutex_and_guard_behave_like_std_outside_models() {
        let m = Mutex::new(5);
        {
            let mut g = m.lock().unwrap();
            *g += 1;
        }
        assert_eq!(*m.lock().unwrap(), 6);
        assert!(m.try_lock().is_ok());
        assert!(!m.is_poisoned());
    }

    #[test]
    fn condvar_wait_timeout_expires_outside_models() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let g = m.lock().unwrap();
        let (g, r) = cv.wait_timeout(g, Duration::from_millis(5)).unwrap();
        assert!(r.timed_out());
        assert!(!*g);
    }

    #[test]
    fn condvar_notify_crosses_threads_outside_models() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = Arc::clone(&shared);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*s2;
            let mut g = m.lock().unwrap();
            while !*g {
                g = cv.wait(g).unwrap();
            }
            true
        });
        std::thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*shared;
        *m.lock().unwrap() = true;
        cv.notify_all();
        assert!(h.join().unwrap());
    }

    #[test]
    fn rwlock_allows_shared_reads_outside_models() {
        let lk = RwLock::new(7);
        {
            let a = lk.read().unwrap();
            let b = lk.read().unwrap();
            assert_eq!(*a + *b, 14);
        }
        *lk.write().unwrap() = 9;
        assert_eq!(*lk.read().unwrap(), 9);
    }

    #[test]
    fn atomics_pass_through_outside_models() {
        let n = AtomicUsize::new(1);
        assert_eq!(n.fetch_add(2, Ordering::SeqCst), 1);
        assert_eq!(n.load(Ordering::SeqCst), 3);
        let b = AtomicBool::new(false);
        assert!(!b.swap(true, Ordering::SeqCst));
        assert!(b.load(Ordering::SeqCst));
        let x = AtomicU64::new(10);
        assert_eq!(x.fetch_max(4, Ordering::SeqCst), 10);
        assert_eq!(x.fetch_max(40, Ordering::SeqCst), 10);
        assert_eq!(x.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn poisoned_mutex_recovers_like_std() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison");
        })
        .join();
        assert!(m.is_poisoned());
        let g = m.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(*g, 1);
    }
}
