//! The application interface (§A.4.4): a deterministic state machine with
//! snapshot support.
//!
//! A checkpoint asks the application for its state as a list of hashed
//! [`Part`]s ([`Application::snapshot_parts`]) rather than as one buffer:
//! an application that remembers which parts it has not touched since the
//! last checkpoint hands the same parts out again, and the checkpoint
//! costs the host what changed instead of what exists. The default is one
//! part holding [`Application::snapshot`], which is right for small
//! states such as [`CounterApp`]'s.
//!
//! Bytes cross the interface without being copied. [`Application::execute`]
//! is handed the ordered operation's own buffer and may keep slices of it
//! ([`Bytes::slice`]) as state, and [`Application::snapshot_parts`] may
//! hand those slices back as the pieces of a part ([`Part::from_pieces`]);
//! [`Application::restore`] is handed the snapshot's parts as they
//! arrived, verified, and may keep their pieces, slices of them or the
//! parts themselves, and it says whether it accepted them.

use crate::checkpoint::Part;
use bytes::Bytes;
use spider_crypto::{Digest, Digestible};

/// A deterministic replicated application (RSM, §A.4.4).
///
/// Implementations must be deterministic: identical operation sequences
/// produce identical states and replies on every replica. Snapshots must
/// capture the full state so a trailing replica can catch up without
/// re-executing (§3.4).
pub trait Application: 'static {
    /// Executes an operation that may modify state; returns the reply.
    ///
    /// `op` is the ordered request's buffer, shared with the rest of the
    /// host: the application may keep slices of it ([`Bytes::slice`])
    /// instead of copying what it stores, at the price of keeping the
    /// whole buffer allocated while a slice lives.
    fn execute(&mut self, op: &Bytes) -> Bytes;

    /// Executes a read-only operation against current (possibly stale
    /// relative to the global order) state. Used for weakly consistent
    /// reads, which bypass agreement (§3.3).
    fn execute_read(&self, op: &[u8]) -> Bytes;

    /// Serializes the full application state.
    fn snapshot(&self) -> Bytes;

    /// The bytes of [`Application::snapshot`] cut into hashed parts, in
    /// order. The cut must depend on the state alone — never on the order
    /// of operations or on when earlier snapshots were taken — because
    /// replicas sign a hash over the list. `&mut self` lets an
    /// implementation keep the parts it built for reuse.
    fn snapshot_parts(&mut self) -> Vec<Part> {
        vec![Part::new(self.snapshot())]
    }

    /// Replaces the state with the one whose
    /// [`Application::snapshot_parts`] were `parts`, and reports whether it
    /// did. The parts are verified against the checkpoint certificate
    /// before they get here, but they are another replica's cut: an
    /// implementation checks that the cut is one it would make (the part
    /// count, and whatever else its encoding requires) and returns `false`
    /// — leaving the state as it was — if it is not. Where a part's bytes
    /// are cut into pieces is not part of the encoding: a part is accepted
    /// or rejected for its bytes alone. It may keep the parts, or slices of
    /// their pieces, as state.
    fn restore(&mut self, parts: &[Part]) -> bool;

    /// Digest of the current state (defaults to hashing the snapshot).
    fn state_digest(&self) -> Digest {
        Digest::of_bytes(&self.snapshot())
    }
}

/// A minimal test application: a counter supporting `add:<n>` writes and
/// `get` reads. Deterministic and snapshotable.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use spider::{Application, CounterApp};
///
/// let mut app = CounterApp::default();
/// app.execute(&Bytes::from_static(b"add:5"));
/// assert_eq!(&app.execute_read(b"get")[..], b"5");
/// ```
#[derive(Debug, Default, Clone)]
pub struct CounterApp {
    value: i64,
}

impl CounterApp {
    /// Current counter value.
    pub fn value(&self) -> i64 {
        self.value
    }
}

impl Application for CounterApp {
    fn execute(&mut self, op: &Bytes) -> Bytes {
        // Operations may be padded to a target wire size; trim first.
        let s = std::str::from_utf8(op).unwrap_or("").trim();
        if let Some(n) = s.strip_prefix("add:") {
            self.value += n.trim().parse::<i64>().unwrap_or(0);
            Bytes::from(self.value.to_string())
        } else if s == "get" {
            Bytes::from(self.value.to_string())
        } else {
            Bytes::from_static(b"err")
        }
    }

    fn execute_read(&self, op: &[u8]) -> Bytes {
        let s = std::str::from_utf8(op).unwrap_or("").trim();
        if s == "get" {
            Bytes::from(self.value.to_string())
        } else {
            Bytes::from_static(b"err")
        }
    }

    fn snapshot(&self) -> Bytes {
        Bytes::from(self.value.to_be_bytes().to_vec())
    }

    /// Accepts exactly the one eight-byte part [`Application::snapshot`]
    /// makes.
    fn restore(&mut self, parts: &[Part]) -> bool {
        let [part] = parts else {
            return false;
        };
        let Ok(value) = <[u8; 8]>::try_from(&part.to_bytes()[..]) else {
            return false;
        };
        self.value = i64::from_be_bytes(value);
        true
    }
}

impl Digestible for CounterApp {
    fn digest(&self) -> Digest {
        self.state_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    #[test]
    fn counter_is_deterministic() {
        let mut a = CounterApp::default();
        let mut b = CounterApp::default();
        for o in ["add:3", "add:-1", "add:10"] {
            assert_eq!(a.execute(&op(o)), b.execute(&op(o)));
        }
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut a = CounterApp::default();
        a.execute(&op("add:41"));
        let parts = a.snapshot_parts();
        let mut b = CounterApp::default();
        assert!(b.restore(&parts));
        assert_eq!(b.value(), 41);
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn restore_rejects_a_cut_it_would_not_make() {
        let mut a = CounterApp::default();
        a.execute(&op("add:7"));
        let part = a.snapshot_parts().remove(0);
        let short = Part::new(part.to_bytes().slice(..7));
        for parts in [vec![], vec![part.clone(), part], vec![short]] {
            let mut b = CounterApp::default();
            b.execute(&op("add:2"));
            assert!(!b.restore(&parts), "{parts:?}");
            assert_eq!(b.value(), 2, "a rejected restore leaves the state alone");
        }
    }

    #[test]
    fn reads_do_not_modify() {
        let mut a = CounterApp::default();
        a.execute(&op("add:1"));
        let before = a.state_digest();
        let _ = a.execute_read(b"get");
        assert_eq!(a.state_digest(), before);
    }

    #[test]
    fn unknown_ops_return_err() {
        let mut a = CounterApp::default();
        assert_eq!(&a.execute(&op("frobnicate"))[..], b"err");
        assert_eq!(&a.execute_read(b"frobnicate")[..], b"err");
    }
}
