//! Wire protocol between [`crate::CoordClient`] and [`crate::CoordService`].

/// Coordination protocol messages. Requests carry the session id so the
/// service can enforce ownership; replies are matched through the mesh's
/// RPC reply slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordMsg {
    // -- sessions --
    OpenSession,
    SessionOpened {
        session: u64,
    },
    Heartbeat {
        session: u64,
    },
    HeartbeatAck,
    CloseSession {
        session: u64,
    },
    SessionClosed,

    // -- global lock (Curator InterProcessMutex recipe) --
    /// Acquire the lock at `path`. The reply is withheld until granted.
    Acquire {
        session: u64,
        path: String,
    },
    Granted {
        path: String,
    },
    Release {
        session: u64,
        path: String,
    },
    Released,

    // -- ephemeral znodes --
    Create {
        session: u64,
        path: String,
        ephemeral: bool,
    },
    Created,
    Exists {
        path: String,
    },
    ExistsReply {
        exists: bool,
    },
    Delete {
        session: u64,
        path: String,
    },
    Deleted,
    ListChildren {
        prefix: String,
    },
    Children {
        paths: Vec<String>,
    },

    /// The request named a session the service does not hold: it expired
    /// (or was closed), so its locks and ephemeral znodes are gone.
    SessionExpired {
        session: u64,
    },
    /// Any other request-level failure (double release, …).
    Error {
        what: String,
    },
}

impl CoordMsg {
    /// Approximate wire size for network modeling (coordination messages are
    /// tiny; only their RTT matters).
    pub fn wire_bytes(&self) -> u64 {
        64
    }
}
