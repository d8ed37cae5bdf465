//! Passthrough sanity: the facade behaves like std when no model run is active —
//! in every build configuration, including `--features model`.

use std::time::Duration;

use kpg_sync::atomic::{AtomicU64, Ordering};
use kpg_sync::{mpsc, thread, Arc, Barrier, Condvar, Mutex};

#[test]
fn mutex_and_condvar_roundtrip() {
    let slot = Arc::new((Mutex::new(0u32), Condvar::new()));
    let producer = {
        let slot = slot.clone();
        thread::spawn(move || {
            let (lock, cv) = &*slot;
            *lock.lock().unwrap() = 7;
            cv.notify_all();
        })
    };
    let (lock, cv) = &*slot;
    let mut value = lock.lock().unwrap();
    while *value == 0 {
        value = cv.wait(value).unwrap();
    }
    assert_eq!(*value, 7);
    drop(value);
    producer.join().unwrap();
}

#[test]
fn wait_timeout_expires() {
    let lock = Mutex::new(());
    let cv = Condvar::new();
    let guard = lock.lock().unwrap();
    let (_guard, result) = cv.wait_timeout(guard, Duration::from_millis(10)).unwrap();
    assert!(result.timed_out());
}

#[test]
fn channel_and_threads() {
    let (sender, receiver) = mpsc::channel();
    let workers: Vec<_> = (0..4u64)
        .map(|index| {
            let sender = sender.clone();
            thread::Builder::new()
                .name(format!("facade-test-{index}"))
                .spawn(move || sender.send(index).unwrap())
                .unwrap()
        })
        .collect();
    drop(sender);
    let mut sum = 0;
    while let Ok(value) = receiver.recv() {
        sum += value;
    }
    assert_eq!(sum, 6);
    for worker in workers {
        worker.join().unwrap();
    }
}

#[test]
fn recv_timeout_expires_and_delivers() {
    let (sender, receiver) = mpsc::channel();
    assert!(receiver.recv_timeout(Duration::from_millis(5)).is_err());
    sender.send(9u8).unwrap();
    assert_eq!(receiver.recv_timeout(Duration::from_secs(5)).unwrap(), 9);
}

#[test]
fn barrier_releases_all() {
    let barrier = Arc::new(Barrier::new(3));
    let counter = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let barrier = barrier.clone();
            let counter = counter.clone();
            thread::spawn(move || {
                barrier.wait();
                counter.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    assert_eq!(counter.load(Ordering::SeqCst), 0);
    barrier.wait();
    for worker in workers {
        worker.join().unwrap();
    }
    assert_eq!(counter.load(Ordering::SeqCst), 2);
}

#[test]
fn atomics_behave_like_std() {
    let value = AtomicU64::new(10);
    assert_eq!(value.fetch_add(5, Ordering::SeqCst), 10);
    assert_eq!(value.swap(1, Ordering::SeqCst), 15);
    assert_eq!(
        value.compare_exchange(1, 2, Ordering::SeqCst, Ordering::SeqCst),
        Ok(1)
    );
    assert_eq!(value.load(Ordering::SeqCst), 2);
}
