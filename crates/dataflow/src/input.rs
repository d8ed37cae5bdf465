//! Interactive inputs: the user-facing handle and its source operator.

use std::cell::RefCell;
use std::rc::Rc;

use kpg_timestamp::{Antichain, PartialOrder, Time};

use crate::operator::{BundleBox, Operator, OutputContext};
use crate::worker::DataflowBuilder;
use crate::NodeId;

/// The update buffer type that flows out of an input node.
pub type UpdateBuffer<D, R> = Vec<(D, Time, R)>;

struct InputShared<D, R> {
    buffer: Vec<(D, Time, R)>,
    epoch: u64,
    closed: bool,
}

/// A handle used to interactively introduce updates to a collection and advance its time.
///
/// Each worker holds its own handle and contributes its own shard of the input; the
/// logical collection is the union across workers. Updates are introduced at the handle's
/// current epoch and become visible to the computation once the epoch is closed with
/// [`InputHandle::advance_to`] and the worker is stepped.
pub struct InputHandle<D, R = isize> {
    shared: Rc<RefCell<InputShared<D, R>>>,
    node: NodeId,
}

impl<D, R> Clone for InputHandle<D, R> {
    fn clone(&self) -> Self {
        InputHandle {
            shared: Rc::clone(&self.shared),
            node: self.node,
        }
    }
}

impl<D: Clone + Send + 'static, R: Clone + Send + 'static> InputHandle<D, R> {
    /// Creates an input operator in `builder` and returns the handle plus the node whose
    /// output carries the update stream.
    pub fn new(builder: &mut DataflowBuilder) -> (Self, NodeId) {
        let shared = Rc::new(RefCell::new(InputShared {
            buffer: Vec::new(),
            epoch: 0,
            closed: false,
        }));
        let operator = InputOperator {
            shared: Rc::clone(&shared),
        };
        let node = builder.add_operator(Box::new(operator), 0);
        (InputHandle { shared, node }, node)
    }

    /// The node carrying this input's updates.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current epoch: updates are introduced at this time.
    pub fn epoch(&self) -> u64 {
        self.shared.borrow().epoch
    }

    /// The current time, as a [`Time`].
    pub fn time(&self) -> Time {
        Time::from_epoch(self.epoch())
    }

    /// Introduces `data` with difference `diff` at the current epoch.
    pub fn update(&mut self, data: D, diff: R) {
        let mut shared = self.shared.borrow_mut();
        assert!(!shared.closed, "input used after close");
        let time = Time::from_epoch(shared.epoch);
        shared.buffer.push((data, time, diff));
    }

    /// Introduces `data` with difference `diff` at an explicit time, which must not be
    /// earlier than the current epoch.
    pub fn update_at(&mut self, data: D, time: Time, diff: R) {
        let mut shared = self.shared.borrow_mut();
        assert!(!shared.closed, "input used after close");
        assert!(
            Time::from_epoch(shared.epoch).less_equal(&time),
            "updates must be at or beyond the current epoch"
        );
        shared.buffer.push((data, time, diff));
    }

    /// Advances the input to `epoch`, promising that no further updates will be
    /// introduced at earlier times.
    pub fn advance_to(&mut self, epoch: u64) {
        let mut shared = self.shared.borrow_mut();
        assert!(
            epoch >= shared.epoch,
            "inputs can only advance: {} -> {}",
            shared.epoch,
            epoch
        );
        shared.epoch = epoch;
    }

    /// Closes the input: no further updates will ever be introduced.
    pub fn close(&mut self) {
        self.shared.borrow_mut().closed = true;
    }
}

impl<D: Clone + Send + 'static> InputHandle<D, isize> {
    /// Inserts one occurrence of `data` at the current epoch.
    pub fn insert(&mut self, data: D) {
        self.update(data, 1);
    }

    /// Removes one occurrence of `data` at the current epoch.
    pub fn remove(&mut self, data: D) {
        self.update(data, -1);
    }
}

/// The source operator behind an [`InputHandle`].
struct InputOperator<D, R> {
    shared: Rc<RefCell<InputShared<D, R>>>,
}

impl<D: Clone + Send + 'static, R: Clone + Send + 'static> Operator for InputOperator<D, R> {
    fn name(&self) -> &str {
        "Input"
    }

    fn recv(&mut self, _port: usize, _payload: BundleBox) {
        unreachable!("input operators have no input ports");
    }

    fn work(&mut self, output: &mut OutputContext<'_>) -> bool {
        let mut shared = self.shared.borrow_mut();
        if shared.buffer.is_empty() {
            return false;
        }
        let buffer: UpdateBuffer<D, R> = std::mem::take(&mut shared.buffer);
        drop(shared);
        output.send(Box::new(buffer));
        true
    }

    fn set_frontier(&mut self, _port: usize, _frontier: &Antichain<Time>) {}

    fn capabilities(&self, into: &mut Antichain<Time>) {
        let shared = self.shared.borrow();
        if !(shared.closed && shared.buffer.is_empty()) {
            into.insert(Time::from_epoch(shared.epoch));
        }
    }
}
