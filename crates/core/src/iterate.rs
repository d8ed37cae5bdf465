//! Fixed-point iteration: `iterate` and recursively defined collections (paper §5.4).
//!
//! Iteration extends timestamps with a round-of-iteration coordinate under the product
//! partial order. A [`Variable`] is a collection that can be used before it is defined;
//! its definition, supplied later with [`Variable::set`], is fed back around the loop
//! with the round incremented. [`Collection::iterate`] wraps the common case of a single
//! mutually recursive collection; `Variable`s can be combined directly for mutual
//! recursion (as Datalog programs require) or to return intermediate collections.

use kpg_dataflow::EdgeTransform;
use kpg_trace::{Abelian, Data};

use crate::collection::Collection;
use crate::operators::UpdateVec;

/// A recursively defined collection.
///
/// The variable's value at round zero is the `source` collection it is created from; its
/// value at round `r + 1` is whatever its definition evaluated to at round `r`. The
/// differential encoding feeds `definition − source` around the feedback edge so that the
/// updates circulating each round are exactly the changes from the previous round.
pub struct Variable<D: Data, R: Abelian> {
    collection: Collection<D, R>,
    source: Collection<D, R>,
    feedback_target: kpg_dataflow::NodeId,
    depth: usize,
}

impl<D: Data, R: Abelian> Variable<D, R> {
    /// Creates a variable initialised to `source` (which must already be inside the
    /// iteration scope, i.e. have been `enter`ed).
    pub fn new_from(source: &Collection<D, R>) -> Self {
        let depth = source.depth();
        assert!(
            (1..kpg_timestamp::time::MAX_DEPTH).contains(&depth),
            "variables must live inside an iteration scope (depth 1 or 2)"
        );
        let mut builder = source.builder().clone();
        // The feedback node advances the round of everything it forwards; its outgoing
        // edges carry the matching frontier transform.
        let feedback = builder.add_operator_with_transform(
            Box::new(crate::operators::StatelessUnary::new(
                "Feedback",
                move |buffer: UpdateVec<D, R>| {
                    buffer
                        .into_iter()
                        .map(|(d, t, r)| (d, t.advanced(depth, 1), r))
                        .collect::<Vec<_>>()
                },
            )),
            1,
            EdgeTransform::Feedback { depth },
        );
        let feedback_collection = Collection::<D, R>::from_node(builder.clone(), feedback, depth);
        // The variable is the initial value plus the fed-back changes.
        let collection = source.concat(&feedback_collection);
        Variable {
            collection,
            source: source.clone(),
            feedback_target: feedback,
            depth,
        }
    }

    /// The variable as a collection, usable in the loop body before `set` is called.
    pub fn collection(&self) -> &Collection<D, R> {
        &self.collection
    }

    /// Supplies the variable's definition and returns the defined collection.
    ///
    /// The changes `definition − source` are routed around the feedback edge with the
    /// iteration round incremented, so the variable's accumulated value at round `r + 1`
    /// equals the definition's value at round `r`.
    pub fn set(self, definition: &Collection<D, R>) -> Collection<D, R> {
        assert_eq!(
            definition.depth(),
            self.depth,
            "a variable must be defined in its own scope"
        );
        let mut builder = definition.builder().clone();
        let delta = definition.concat(&self.source.negate());
        builder.connect(delta.node(), self.feedback_target, 0);
        definition.clone()
    }
}

impl<D: Data, R: Abelian> Collection<D, R> {
    /// Repeatedly applies `logic`, returning the fixed point (paper Figure 1's
    /// `.iterate(...)`).
    ///
    /// The closure receives the loop variable — initially this collection, entered into
    /// the iteration scope — and returns its next value. The result is the collection's
    /// value once no further changes circulate, returned in the enclosing scope.
    ///
    /// `logic` must be a monotone-ish differential computation that converges (typically
    /// it ends in `distinct`, as the paper's reachability example does); divergent loops
    /// step forever, exactly as they would in the original system.
    pub fn iterate(
        &self,
        logic: impl FnOnce(&Collection<D, R>) -> Collection<D, R>,
    ) -> Collection<D, R> {
        let entered = self.enter();
        let variable = Variable::new_from(&entered);
        let result = logic(variable.collection());
        let defined = variable.set(&result);
        defined.leave()
    }
}
