//! The campaign-service wire protocol: newline-delimited JSON over a
//! localhost TCP stream (std-only, matching the workspace's no-deps
//! style; the same framing would work over a Unix socket).
//!
//! One request per line, one reply per line, in order. Success replies
//! carry an `"ok"` discriminant, error replies an `"err"` discriminant,
//! so a client can classify a reply without knowing every variant. All
//! payloads reuse the campaign crate's canonical encodings
//! ([`CellConfig::to_json`], [`CellRecord::to_json`]), which is what
//! lets `inpg submit` reassemble merged artifacts byte-identical to the
//! in-process engine's.
//!
//! Requests:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"status"}
//! {"op":"shutdown"}
//! {"op":"submit","deadline_ms":1500,"config":{...canonical cell config...}}
//! ```
//!
//! Replies (one of):
//!
//! ```text
//! {"ok":"pong"}
//! {"ok":"result","hash":"<16 hex>","cached":true,"wall_nanos":0,"record":{...}}
//! {"ok":"status","queued":0,"in_flight":1,...}
//! {"ok":"shutting-down","journaled":3}
//! {"err":"timeout","detail":"..."}          deadline passed (typed, per request)
//! {"err":"overloaded","retry_after_ms":50}  admission queue full — back off
//! {"err":"draining"}                        daemon is shutting down, resubmit later
//! {"err":"failed","detail":"..."}           the cell's simulation errored
//! {"err":"invalid","detail":"..."}          unparseable or malformed request
//! ```
//!
//! A submit that misses the cache may additionally stream progress
//! *notes* before its terminal reply — zero or more lines carrying a
//! `"note"` discriminant, pushed on the same connection:
//!
//! ```text
//! {"note":"queued","hash":"<16 hex>","ahead":3}   admitted; 3 jobs queued ahead
//! {"note":"running","hash":"<16 hex>"}            a worker picked it up
//! {"note":"done","hash":"<16 hex>","wall_nanos":12345}  simulation finished
//! ```
//!
//! Notes are advisory: a client may ignore every one of them and just
//! wait for the `"ok"`/`"err"` line ([`ServerLine`] does the
//! classification). Cache hits and error replies arrive with no notes
//! at all, so the warm path stays a single-line exchange.

use crate::cell::{CellConfig, CellRecord, SchemaError};
use crate::json::{self, Json};

/// A client-to-daemon request.
///
/// `Submit` carries its [`CellConfig`] inline although it dwarfs the
/// other variants: a request is built, encoded and dropped one at a
/// time, never stored in bulk, so boxing would only add an allocation
/// per submit and change the variant's public shape.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Service counters and queue depths.
    Status,
    /// Begin a graceful drain: finish in-flight cells, journal queued
    /// ones, refuse new work, exit.
    Shutdown,
    /// Run (or serve from cache) one cell.
    Submit {
        config: CellConfig,
        /// Per-request deadline in milliseconds, measured from
        /// admission. `None` uses the daemon's default (which may be
        /// unlimited).
        deadline_ms: Option<u64>,
    },
}

impl Request {
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj(vec![("op", Json::Str("ping".into()))]),
            Request::Status => Json::obj(vec![("op", Json::Str("status".into()))]),
            Request::Shutdown => Json::obj(vec![("op", Json::Str("shutdown".into()))]),
            Request::Submit { config, deadline_ms } => Json::obj(vec![
                ("op", Json::Str("submit".into())),
                (
                    "deadline_ms",
                    deadline_ms.map_or(Json::Null, Json::UInt),
                ),
                ("config", config.to_json()),
            ]),
        }
    }

    /// Parses one request line.
    pub fn from_line(line: &str) -> Result<Self, SchemaError> {
        let v = json::parse(line)?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| SchemaError("request has no op".into()))?;
        match op {
            "ping" => Ok(Request::Ping),
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            "submit" => {
                let config = v
                    .get("config")
                    .ok_or_else(|| SchemaError("submit has no config".into()))?;
                let deadline_ms = match v.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(
                        j.as_u64()
                            .ok_or_else(|| SchemaError("bad deadline_ms".into()))?,
                    ),
                };
                Ok(Request::Submit { config: CellConfig::from_json(config)?, deadline_ms })
            }
            other => Err(SchemaError(format!("unknown op `{other}`"))),
        }
    }
}

/// Service counters reported by [`Reply::Status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStatus {
    /// Jobs admitted but not yet started.
    pub queued: u64,
    /// Jobs currently executing on the resident pool.
    pub in_flight: u64,
    /// Requests answered from the verified cache.
    pub hits: u64,
    /// Requests that executed a simulator.
    pub misses: u64,
    /// Requests that hit their deadline (queued or mid-run).
    pub timeouts: u64,
    /// Requests shed at the admission bound.
    pub rejected: u64,
    /// Corrupt cache entries quarantined since startup.
    pub quarantined: u64,
    /// Whether the daemon is refusing new work.
    pub draining: bool,
}

impl ServiceStatus {
    fn to_json_fields(self) -> Vec<(&'static str, Json)> {
        vec![
            ("queued", Json::UInt(self.queued)),
            ("in_flight", Json::UInt(self.in_flight)),
            ("hits", Json::UInt(self.hits)),
            ("misses", Json::UInt(self.misses)),
            ("timeouts", Json::UInt(self.timeouts)),
            ("rejected", Json::UInt(self.rejected)),
            ("quarantined", Json::UInt(self.quarantined)),
            ("draining", Json::Bool(self.draining)),
        ]
    }

    fn from_json(v: &Json) -> Result<Self, SchemaError> {
        let field = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| SchemaError(format!("status missing `{key}`")))
        };
        Ok(ServiceStatus {
            queued: field("queued")?,
            in_flight: field("in_flight")?,
            hits: field("hits")?,
            misses: field("misses")?,
            timeouts: field("timeouts")?,
            rejected: field("rejected")?,
            quarantined: field("quarantined")?,
            draining: v
                .get("draining")
                .and_then(Json::as_bool)
                .ok_or_else(|| SchemaError("status missing `draining`".into()))?,
        })
    }
}

/// A daemon-to-client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Pong,
    /// The cell's verified record (boxed: it dwarfs every other
    /// variant).
    Result {
        /// The cell config's content hash (its cache address).
        hash: String,
        record: Box<CellRecord>,
        /// Whether the record came from the cache (no simulator ran for
        /// this request).
        cached: bool,
        /// Wall nanoseconds this request spent executing (0 on a hit).
        wall_nanos: u64,
    },
    Status(ServiceStatus),
    /// Acknowledges a shutdown request; `journaled` cells were persisted
    /// for the next daemon to replay.
    ShuttingDown { journaled: u64 },
    /// The request's deadline passed (while queued, or mid-run via a
    /// raised abort handle).
    Timeout { detail: String },
    /// Shed at the admission bound; retry after the given backoff.
    Overloaded { retry_after_ms: u64 },
    /// The daemon is draining and accepts no new work.
    Draining,
    /// The cell's simulation failed (config/stall/invariant error).
    Failed { detail: String },
    /// The request line could not be understood.
    Invalid { detail: String },
}

impl Reply {
    pub fn to_json(&self) -> Json {
        match self {
            Reply::Pong => Json::obj(vec![("ok", Json::Str("pong".into()))]),
            Reply::Result { hash, record, cached, wall_nanos } => Json::obj(vec![
                ("ok", Json::Str("result".into())),
                ("hash", Json::Str(hash.clone())),
                ("cached", Json::Bool(*cached)),
                ("wall_nanos", Json::UInt(*wall_nanos)),
                ("record", record.to_json()),
            ]),
            Reply::Status(status) => {
                let mut fields = vec![("ok", Json::Str("status".into()))];
                fields.extend(status.to_json_fields());
                Json::obj(fields)
            }
            Reply::ShuttingDown { journaled } => Json::obj(vec![
                ("ok", Json::Str("shutting-down".into())),
                ("journaled", Json::UInt(*journaled)),
            ]),
            Reply::Timeout { detail } => Json::obj(vec![
                ("err", Json::Str("timeout".into())),
                ("detail", Json::Str(detail.clone())),
            ]),
            Reply::Overloaded { retry_after_ms } => Json::obj(vec![
                ("err", Json::Str("overloaded".into())),
                ("retry_after_ms", Json::UInt(*retry_after_ms)),
            ]),
            Reply::Draining => Json::obj(vec![("err", Json::Str("draining".into()))]),
            Reply::Failed { detail } => Json::obj(vec![
                ("err", Json::Str("failed".into())),
                ("detail", Json::Str(detail.clone())),
            ]),
            Reply::Invalid { detail } => Json::obj(vec![
                ("err", Json::Str("invalid".into())),
                ("detail", Json::Str(detail.clone())),
            ]),
        }
    }

    /// Parses one reply line.
    pub fn from_line(line: &str) -> Result<Self, SchemaError> {
        let v = json::parse(line)?;
        let detail = |v: &Json| {
            v.get("detail")
                .and_then(Json::as_str)
                .unwrap_or("(no detail)")
                .to_string()
        };
        if let Some(ok) = v.get("ok").and_then(Json::as_str) {
            return match ok {
                "pong" => Ok(Reply::Pong),
                "result" => Ok(Reply::Result {
                    hash: v
                        .get("hash")
                        .and_then(Json::as_str)
                        .ok_or_else(|| SchemaError("result has no hash".into()))?
                        .to_string(),
                    record: Box::new(CellRecord::from_json(
                        v.get("record")
                            .ok_or_else(|| SchemaError("result has no record".into()))?,
                    )?),
                    cached: v
                        .get("cached")
                        .and_then(Json::as_bool)
                        .ok_or_else(|| SchemaError("result has no cached".into()))?,
                    wall_nanos: v.get("wall_nanos").and_then(Json::as_u64).unwrap_or(0),
                }),
                "status" => Ok(Reply::Status(ServiceStatus::from_json(&v)?)),
                "shutting-down" => Ok(Reply::ShuttingDown {
                    journaled: v.get("journaled").and_then(Json::as_u64).unwrap_or(0),
                }),
                other => Err(SchemaError(format!("unknown ok reply `{other}`"))),
            };
        }
        if let Some(err) = v.get("err").and_then(Json::as_str) {
            return match err {
                "timeout" => Ok(Reply::Timeout { detail: detail(&v) }),
                "overloaded" => Ok(Reply::Overloaded {
                    retry_after_ms: v
                        .get("retry_after_ms")
                        .and_then(Json::as_u64)
                        .unwrap_or(50),
                }),
                "draining" => Ok(Reply::Draining),
                "failed" => Ok(Reply::Failed { detail: detail(&v) }),
                "invalid" => Ok(Reply::Invalid { detail: detail(&v) }),
                other => Err(SchemaError(format!("unknown err reply `{other}`"))),
            };
        }
        Err(SchemaError("reply has neither ok nor err".into()))
    }
}

/// A progress note a daemon pushes for an in-flight cache miss, ahead
/// of the terminal [`Reply`] on the same connection. Purely advisory:
/// clients that only read the terminal line still work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Notification {
    /// The job passed admission; `ahead` jobs were queued before it.
    Queued { hash: String, ahead: u64 },
    /// A worker thread picked the job up.
    Running { hash: String },
    /// The simulation finished (the result line follows).
    Done { hash: String, wall_nanos: u64 },
}

impl Notification {
    /// The content hash of the cell the note is about.
    pub fn hash(&self) -> &str {
        match self {
            Notification::Queued { hash, .. }
            | Notification::Running { hash }
            | Notification::Done { hash, .. } => hash,
        }
    }

    pub fn to_json(&self) -> Json {
        match self {
            Notification::Queued { hash, ahead } => Json::obj(vec![
                ("note", Json::Str("queued".into())),
                ("hash", Json::Str(hash.clone())),
                ("ahead", Json::UInt(*ahead)),
            ]),
            Notification::Running { hash } => Json::obj(vec![
                ("note", Json::Str("running".into())),
                ("hash", Json::Str(hash.clone())),
            ]),
            Notification::Done { hash, wall_nanos } => Json::obj(vec![
                ("note", Json::Str("done".into())),
                ("hash", Json::Str(hash.clone())),
                ("wall_nanos", Json::UInt(*wall_nanos)),
            ]),
        }
    }

    /// Parses one note line.
    pub fn from_line(line: &str) -> Result<Self, SchemaError> {
        let v = json::parse(line)?;
        let note = v
            .get("note")
            .and_then(Json::as_str)
            .ok_or_else(|| SchemaError("line has no note".into()))?;
        let hash = v
            .get("hash")
            .and_then(Json::as_str)
            .ok_or_else(|| SchemaError("note has no hash".into()))?
            .to_string();
        match note {
            "queued" => Ok(Notification::Queued {
                hash,
                ahead: v.get("ahead").and_then(Json::as_u64).unwrap_or(0),
            }),
            "running" => Ok(Notification::Running { hash }),
            "done" => Ok(Notification::Done {
                hash,
                wall_nanos: v.get("wall_nanos").and_then(Json::as_u64).unwrap_or(0),
            }),
            other => Err(SchemaError(format!("unknown note `{other}`"))),
        }
    }
}

/// One classified line of a daemon's response stream: either an
/// advisory progress [`Notification`] or the terminal [`Reply`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServerLine {
    Note(Notification),
    Reply(Reply),
}

impl ServerLine {
    /// Classifies one line. The `"note"` discriminant is checked first,
    /// so a stream reader can loop over lines without knowing whether
    /// the daemon streams progress at all.
    pub fn from_line(line: &str) -> Result<Self, SchemaError> {
        let v = json::parse(line)?;
        if v.get("note").is_some() {
            return Notification::from_line(line).map(ServerLine::Note);
        }
        Reply::from_line(line).map(ServerLine::Reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inpg::Mechanism;

    fn roundtrip_request(req: Request) {
        let line = req.to_json().to_string_compact();
        assert_eq!(Request::from_line(&line).expect("parses"), req, "{line}");
    }

    fn roundtrip_reply(reply: Reply) {
        let line = reply.to_json().to_string_compact();
        assert_eq!(Reply::from_line(&line).expect("parses"), reply, "{line}");
    }

    fn sample_record() -> CellRecord {
        let mut config = CellConfig::hot_lock(1, 40, 20);
        config.width = 2;
        config.height = 2;
        config.max_cycles = 1_000_000;
        config.run().expect("valid cell")
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Status);
        roundtrip_request(Request::Shutdown);
        let mut config = CellConfig::benchmark("freq");
        config.mechanism = Mechanism::Inpg;
        config.seed = 99;
        roundtrip_request(Request::Submit { config: config.clone(), deadline_ms: None });
        roundtrip_request(Request::Submit { config, deadline_ms: Some(1500) });
    }

    #[test]
    fn replies_roundtrip() {
        roundtrip_reply(Reply::Pong);
        roundtrip_reply(Reply::Result {
            hash: "00ff00ff00ff00ff".into(),
            record: Box::new(sample_record()),
            cached: true,
            wall_nanos: 0,
        });
        roundtrip_reply(Reply::Status(ServiceStatus {
            queued: 3,
            in_flight: 2,
            hits: 10,
            misses: 4,
            timeouts: 1,
            rejected: 7,
            quarantined: 1,
            draining: true,
        }));
        roundtrip_reply(Reply::ShuttingDown { journaled: 5 });
        roundtrip_reply(Reply::Timeout { detail: "deadline 10ms passed".into() });
        roundtrip_reply(Reply::Overloaded { retry_after_ms: 75 });
        roundtrip_reply(Reply::Draining);
        roundtrip_reply(Reply::Failed { detail: "stall".into() });
        roundtrip_reply(Reply::Invalid { detail: "no op".into() });
    }

    #[test]
    fn garbage_lines_are_schema_errors() {
        assert!(Request::from_line("not json").is_err());
        assert!(Request::from_line("{\"op\":\"fly\"}").is_err());
        assert!(Reply::from_line("{}").is_err());
        assert!(Reply::from_line("{\"ok\":\"victory\"}").is_err());
    }

    #[test]
    fn notes_roundtrip() {
        for note in [
            Notification::Queued { hash: "00ff00ff00ff00ff".into(), ahead: 3 },
            Notification::Running { hash: "00ff00ff00ff00ff".into() },
            Notification::Done { hash: "00ff00ff00ff00ff".into(), wall_nanos: 12_345 },
        ] {
            let line = note.to_json().to_string_compact();
            assert_eq!(Notification::from_line(&line).expect("parses"), note, "{line}");
            assert_eq!(note.hash(), "00ff00ff00ff00ff");
        }
        assert!(Notification::from_line("{\"note\":\"paused\",\"hash\":\"x\"}").is_err());
        assert!(Notification::from_line("{\"note\":\"done\"}").is_err(), "hash required");
    }

    #[test]
    fn server_lines_classify_notes_before_replies() {
        let note = Notification::Running { hash: "ab".into() };
        assert_eq!(
            ServerLine::from_line(&note.to_json().to_string_compact()).expect("parses"),
            ServerLine::Note(note)
        );
        assert_eq!(
            ServerLine::from_line("{\"ok\":\"pong\"}").expect("parses"),
            ServerLine::Reply(Reply::Pong)
        );
        assert_eq!(
            ServerLine::from_line("{\"err\":\"draining\"}").expect("parses"),
            ServerLine::Reply(Reply::Draining)
        );
        assert!(ServerLine::from_line("{}").is_err());
    }
}
