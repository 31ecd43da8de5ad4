//! The four-way outcome of the §2.4.2 message-acceptance rule.

use super::set::PredicateSet;

/// What a receiver must do with a message, given its predicate set `R` and
/// the message's sending predicate `S`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Compat {
    /// `S ⊆ R`: "the message is immediately accepted" — deliver, no change
    /// to the receiver.
    Accept,
    /// The receiver already assumed `complete(sender)`, so it cannot reject;
    /// it accepts and adopts the sender's (new-to-it) assumptions wholesale.
    /// Carries the receiver's extended predicate set.
    AcceptExtend(PredicateSet),
    /// `∃p: p ∈ S ∧ ¬p ∈ R`: "the message is ignored".
    Ignore,
    /// New assumptions are required: "two copies of the receiver are
    /// created" — `with` accepts the message (conjoining `complete(sender)`,
    /// which implies all the sender's predicates); `without` rejects it
    /// (conjoining only `¬complete(sender)`, avoiding the logical
    /// impossibility of negating every sender predicate).
    Split {
        /// Predicate set for the copy that accepts the message.
        with: PredicateSet,
        /// Predicate set for the copy that does not.
        without: PredicateSet,
    },
}

impl Compat {
    /// Does this outcome deliver the message to (at least one copy of) the
    /// receiver?
    pub fn delivers(&self) -> bool {
        !matches!(self, Compat::Ignore)
    }

    /// Does this outcome create a second receiver world?
    pub fn splits(&self) -> bool {
        matches!(self, Compat::Split { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_classification() {
        assert!(Compat::Accept.delivers());
        assert!(Compat::AcceptExtend(PredicateSet::empty()).delivers());
        assert!(!Compat::Ignore.delivers());
        let split = Compat::Split {
            with: PredicateSet::empty(),
            without: PredicateSet::empty(),
        };
        assert!(split.delivers());
        assert!(split.splits());
        assert!(!Compat::Accept.splits());
    }
}
