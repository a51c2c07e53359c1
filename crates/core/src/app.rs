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
    fn execute(&mut self, op: &[u8]) -> Bytes;

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

    /// Replaces the state with a snapshot produced by [`Application::snapshot`].
    fn restore(&mut self, snapshot: &[u8]);

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
/// use spider::{Application, CounterApp};
///
/// let mut app = CounterApp::default();
/// app.execute(b"add:5");
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
    fn execute(&mut self, op: &[u8]) -> Bytes {
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

    fn restore(&mut self, snapshot: &[u8]) {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&snapshot[..8]);
        self.value = i64::from_be_bytes(buf);
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

    #[test]
    fn counter_is_deterministic() {
        let mut a = CounterApp::default();
        let mut b = CounterApp::default();
        for op in ["add:3", "add:-1", "add:10"] {
            assert_eq!(a.execute(op.as_bytes()), b.execute(op.as_bytes()));
        }
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut a = CounterApp::default();
        a.execute(b"add:41");
        let snap = a.snapshot();
        let mut b = CounterApp::default();
        b.restore(&snap);
        assert_eq!(b.value(), 41);
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn reads_do_not_modify() {
        let mut a = CounterApp::default();
        a.execute(b"add:1");
        let before = a.state_digest();
        let _ = a.execute_read(b"get");
        assert_eq!(a.state_digest(), before);
    }

    #[test]
    fn unknown_ops_return_err() {
        let mut a = CounterApp::default();
        assert_eq!(&a.execute(b"frobnicate")[..], b"err");
        assert_eq!(&a.execute_read(b"frobnicate")[..], b"err");
    }
}
