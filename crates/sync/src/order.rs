//! Debug-build lock-order analysis.
//!
//! Every [`Mutex`](crate::Mutex) acquisition adds edges
//! `held → acquired` to one process-wide directed graph. An edge that closes a cycle
//! means two code paths acquire the same locks in opposite orders — a deadlock that
//! needs only the right interleaving — and panics immediately, on whichever schedule
//! actually ran, with the chain of acquisition sites. Recursive acquisition of one
//! lock (guaranteed self-deadlock with std's non-reentrant primitives) panics too.
//!
//! The analysis keys locks by address, records the most recent acquisition site per
//! lock for diagnostics, and drops a lock's node when the lock itself drops (so a
//! reused allocation cannot alias a retired lock's edges). Everything compiles to
//! nothing in release builds.

#[cfg(debug_assertions)]
use std::cell::{Cell, RefCell};
#[cfg(debug_assertions)]
use std::collections::{HashMap, HashSet};
#[cfg(debug_assertions)]
use std::panic::Location;
#[cfg(debug_assertions)]
use std::sync::{Mutex as StdMutex, OnceLock as StdOnceLock};

#[cfg(debug_assertions)]
#[derive(Default)]
struct OrderGraph {
    /// `a → b`: some thread acquired `b` while holding `a`.
    edges: HashMap<usize, HashSet<usize>>,
    /// The most recent acquisition site seen for each lock (diagnostics only).
    sites: HashMap<usize, &'static Location<'static>>,
}

#[cfg(debug_assertions)]
impl OrderGraph {
    /// A path `from → … → to` along recorded edges, if one exists.
    fn path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        let mut stack = vec![vec![from]];
        let mut seen = HashSet::new();
        seen.insert(from);
        while let Some(path) = stack.pop() {
            let node = *path.last().expect("paths are non-empty");
            if node == to {
                return Some(path);
            }
            if let Some(next) = self.edges.get(&node) {
                for &successor in next {
                    if seen.insert(successor) {
                        let mut extended = path.clone();
                        extended.push(successor);
                        stack.push(extended);
                    }
                }
            }
        }
        None
    }

    fn describe(&self, lock: usize) -> String {
        match self.sites.get(&lock) {
            Some(site) => format!("lock {lock:#x} (last acquired at {site})"),
            None => format!("lock {lock:#x}"),
        }
    }
}

#[cfg(debug_assertions)]
fn graph() -> &'static StdMutex<OrderGraph> {
    static GRAPH: StdOnceLock<StdMutex<OrderGraph>> = StdOnceLock::new();
    GRAPH.get_or_init(|| StdMutex::new(OrderGraph::default()))
}

#[cfg(debug_assertions)]
thread_local! {
    /// Lock ids this thread currently holds, in acquisition order.
    static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Edges this thread has already pushed into the global graph: a per-thread
    /// cache so steady-state re-acquisitions never touch the global lock. (A cached
    /// edge can go stale if both endpoint locks drop and their addresses are reused;
    /// that can only suppress a re-check, never invent a false cycle.)
    static KNOWN_EDGES: RefCell<HashSet<(usize, usize)>> = RefCell::new(HashSet::new());
    /// Non-zero while inside [`untracked`].
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
}

/// Runs `f` with lock-order tracking disabled on the current thread.
///
/// The escape hatch for code whose opposite-order acquisitions are made safe by an
/// outer protocol the graph cannot see (and for the model self-tests that plant a
/// real AB/BA deadlock for the scheduler to find). Use sparingly, and say why.
pub fn untracked<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(debug_assertions)]
    {
        SUPPRESS.with(|s| s.set(s.get() + 1));
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                SUPPRESS.with(|s| s.set(s.get() - 1));
            }
        }
        let _reset = Reset;
        f()
    }
    #[cfg(not(debug_assertions))]
    f()
}

/// How many tracked locks the current thread holds. Always 0 in release builds
/// (tracking is compiled out), so callers must treat 0 as "nothing to report".
pub fn held_locks() -> usize {
    #[cfg(debug_assertions)]
    {
        HELD.with(|held| held.borrow().len())
    }
    #[cfg(not(debug_assertions))]
    0
}

#[cfg(debug_assertions)]
pub(crate) fn note_acquire(lock: usize, site: &'static Location<'static>) {
    if SUPPRESS.with(Cell::get) > 0 {
        return;
    }
    let held_snapshot: Vec<usize> = HELD.with(|held| {
        let held = held.borrow();
        if held.contains(&lock) {
            panic!(
                "kpg_sync: recursive acquisition of lock {lock:#x} at {site} — \
                 std locks are not reentrant, this thread would deadlock on itself"
            );
        }
        held.clone()
    });
    let fresh: Vec<usize> = KNOWN_EDGES.with(|known| {
        let known = known.borrow();
        held_snapshot
            .iter()
            .copied()
            .filter(|&held| !known.contains(&(held, lock)))
            .collect()
    });
    if !fresh.is_empty() {
        let mut graph = graph()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        graph.sites.insert(lock, site);
        for held in fresh.iter().copied() {
            // Inserting `held → lock`: a cycle exists iff `lock` already reaches
            // `held`.
            if let Some(path) = graph.path(lock, held) {
                let mut chain: Vec<String> =
                    path.iter().map(|&node| graph.describe(node)).collect();
                chain.push(graph.describe(lock));
                let rendered = chain.join("\n    -> ");
                drop(graph);
                panic!(
                    "kpg_sync: lock-order cycle (deadlock potential) detected at {site}: \
                     acquiring {lock:#x} while holding {held:#x}, but the reverse order \
                     is already on record:\n    {rendered}\n\
                     Fix the acquisition order, or wrap one side in \
                     kpg_sync::order::untracked with a comment proving why it is safe."
                );
            }
            graph.edges.entry(held).or_default().insert(lock);
        }
        drop(graph);
        KNOWN_EDGES.with(|known| {
            let mut known = known.borrow_mut();
            for held in fresh {
                known.insert((held, lock));
            }
        });
    }
    HELD.with(|held| held.borrow_mut().push(lock));
}

#[cfg(debug_assertions)]
pub(crate) fn note_release(lock: usize) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(position) = held.iter().rposition(|&id| id == lock) {
            held.remove(position);
        }
    });
}

/// Purges a dropped lock's node so a reused address cannot inherit its edges.
#[cfg(debug_assertions)]
pub(crate) fn note_drop(lock: usize) {
    let mut graph = graph()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    graph.edges.remove(&lock);
    for targets in graph.edges.values_mut() {
        targets.remove(&lock);
    }
    graph.sites.remove(&lock);
}
