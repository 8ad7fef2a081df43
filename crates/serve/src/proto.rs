//! The serve wire protocol: length-prefixed request/response frames.
//!
//! Every frame is a little-endian `u32` byte length followed by the
//! frame body; the body starts with a one-byte tag. Integers ride the
//! LEB128 varints of [`pythia_core::wire`] (event ids and distances are
//! small), probabilities travel as raw `f64` bit patterns so a
//! prediction crosses the wire **byte-identical** — a client-side
//! distribution compares equal, bit for bit, to what the in-process
//! oracle computed.
//!
//! The in-process client ([`crate::server::Server::client`]) encodes and
//! decodes through these exact functions before dispatching, so tests
//! and benches exercise the same byte path as TCP/Unix-socket clients.

use bytes::{BufMut, BytesMut};
use pythia_core::error::{Error, Result};
use pythia_core::event::EventId;
use pythia_core::predict::{ObserveOutcome, Prediction};
use pythia_core::wire::{get_str, get_u32, get_u64, get_u8, get_varint, put_str, put_varint};

use crate::session::SessionId;
use crate::shard::ShardStats;

/// Hard cap on a frame body; a corrupt or hostile length prefix can
/// never trigger a huge allocation.
pub const MAX_FRAME: usize = 1 << 22;

/// Upper bound on the fixed-size part of any frame: prefix, tags, a
/// session id or string length, an `f64` and two varints. The one-shot
/// encoders add their variable part (5 bytes bound an event id, 13 a
/// distribution entry, 10 a counter) and so never regrow.
const FIXED_BOUND: usize = 40;

// Request tags.
const T_OPEN: u8 = 0x01;
const T_OBSERVE: u8 = 0x02;
const T_PREDICT: u8 = 0x03;
const T_OBSERVE_PREDICT: u8 = 0x04;
const T_CLOSE: u8 = 0x05;
const T_STATS: u8 = 0x06;
const T_RESUME: u8 = 0x07;
// Response tags.
const T_SESSION: u8 = 0x81;
const T_ADVICE: u8 = 0x82;
const T_STATS_REPLY: u8 = 0x83;
const T_CLOSED: u8 = 0x84;
const T_BUSY: u8 = 0x85;
const T_DRAINING: u8 = 0x86;
const T_ERROR: u8 = 0xFF;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a session against the named tenant.
    Open {
        /// Registered tenant name.
        tenant: String,
        /// Journal the session's observe stream so a crashed or drained
        /// server can resurrect it ([`Request::Resume`]). Requires the
        /// server to be configured with a journal directory.
        durable: bool,
    },
    /// Resurrects a durable session that a previous server incarnation
    /// journaled. The reply is a fresh [`Response::Session`] id — the old
    /// one stays dead — whose predictor state is byte-identical to the
    /// journaled observe prefix.
    Resume {
        /// The session id the *previous* incarnation handed out.
        session: SessionId,
    },
    /// Submits a batch of observed events for a session.
    Observe {
        /// Session handle from [`Request::Open`].
        session: SessionId,
        /// Events in observation order.
        events: Vec<EventId>,
    },
    /// Requests the distance-`distance` prediction for a session.
    Predict {
        /// Session handle.
        session: SessionId,
        /// Lookahead distance (1 = next event).
        distance: u32,
    },
    /// Observe + predict in one round trip (the common serving shape).
    ObservePredict {
        /// Session handle.
        session: SessionId,
        /// Lookahead distance for the prediction after the batch.
        distance: u32,
        /// Events in observation order.
        events: Vec<EventId>,
    },
    /// Closes a session, freeing its slab slot.
    Close {
        /// Session handle.
        session: SessionId,
    },
    /// Requests aggregate server statistics.
    Stats,
}

/// How the admission layer treated a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Full service: oracle computed, advice returned.
    Served,
    /// The tenant's circuit breaker is open or probing: the oracle's
    /// answer (if computed at all) was withheld and the response carries
    /// the no-advice default.
    Degraded,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session opened.
    Session {
        /// Generation-tagged handle for all further requests.
        id: SessionId,
    },
    /// Outcome of an observe and/or the requested prediction.
    Advice {
        /// Outcome after the last observed event (`None` for pure
        /// predict requests or degraded observes).
        outcome: Option<ObserveOutcome>,
        /// The prediction (`None` when none was requested).
        prediction: Option<Prediction>,
        /// Whether admission degraded this request to no-advice.
        admission: Admission,
    },
    /// Aggregate per-shard statistics.
    Stats {
        /// One entry per shard, in shard order.
        shards: Vec<ShardStats>,
    },
    /// Session closed.
    Closed,
    /// Too many callers are already waiting for the shard: transient
    /// overload, not failure. The request was *not* applied; retry after
    /// the hinted delay.
    Busy {
        /// Server-suggested backoff before retrying, in milliseconds.
        retry_after_ms: u32,
    },
    /// The server is draining toward shutdown: in-flight sessions finish,
    /// new opens and resumes are refused. Clients should reconnect
    /// elsewhere (or resume after the restart).
    Draining,
    /// The request could not be served (unknown tenant, stale session
    /// id, malformed frame, admission rejection).
    Error {
        /// Human-readable reason.
        message: String,
    },
}

fn put_events(buf: &mut BytesMut, events: &[EventId]) {
    put_varint(buf, events.len() as u64);
    for e in events {
        put_varint(buf, e.0 as u64);
    }
}

fn get_events(buf: &mut &[u8]) -> Result<Vec<EventId>> {
    let n = get_varint(buf)? as usize;
    // Every event costs at least one byte.
    if n > buf.len() {
        return Err(Error::Corrupt(format!(
            "implausible event count {n} for {} remaining bytes",
            buf.len()
        )));
    }
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let id = get_varint(buf)?;
        if id > u32::MAX as u64 {
            return Err(Error::Corrupt(format!("event id {id} overflows u32")));
        }
        events.push(EventId(id as u32));
    }
    Ok(events)
}

fn put_prediction(buf: &mut BytesMut, p: &Prediction) {
    put_varint(buf, p.distribution.len() as u64);
    for &(e, w) in &p.distribution {
        put_varint(buf, e.0 as u64);
        buf.put_u64_le(w.to_bits());
    }
    buf.put_u64_le(p.end_probability.to_bits());
}

fn get_prediction(buf: &mut &[u8]) -> Result<Prediction> {
    let n = get_varint(buf)? as usize;
    // Every distribution entry costs at least 9 bytes.
    if n > buf.len() / 9 {
        return Err(Error::Corrupt(format!(
            "implausible distribution size {n} for {} remaining bytes",
            buf.len()
        )));
    }
    let mut distribution = Vec::with_capacity(n);
    for _ in 0..n {
        let id = get_varint(buf)?;
        if id > u32::MAX as u64 {
            return Err(Error::Corrupt(format!("event id {id} overflows u32")));
        }
        let w = f64::from_bits(get_u64(buf)?);
        distribution.push((EventId(id as u32), w));
    }
    let end_probability = f64::from_bits(get_u64(buf)?);
    Ok(Prediction {
        distribution,
        end_probability,
    })
}

fn outcome_code(o: Option<ObserveOutcome>) -> u8 {
    match o {
        None => 0,
        Some(ObserveOutcome::Matched) => 1,
        Some(ObserveOutcome::Reseeded) => 2,
        Some(ObserveOutcome::Unknown) => 3,
    }
}

fn outcome_from(code: u8) -> Result<Option<ObserveOutcome>> {
    Ok(match code {
        0 => None,
        1 => Some(ObserveOutcome::Matched),
        2 => Some(ObserveOutcome::Reseeded),
        3 => Some(ObserveOutcome::Unknown),
        x => return Err(Error::Corrupt(format!("bad outcome code {x}"))),
    })
}

/// Encodes `req` as one frame (length prefix included) in one
/// allocation.
pub fn encode_request(req: &Request) -> BytesMut {
    let variable = match req {
        Request::Open { tenant, .. } => tenant.len(),
        Request::Observe { events, .. } | Request::ObservePredict { events, .. } => {
            5 * events.len()
        }
        _ => 0,
    };
    let mut out = BytesMut::with_capacity(FIXED_BOUND + variable);
    encode_request_into(req, &mut out);
    out
}

/// Appends `req` to `out` as one frame: the length prefix is reserved,
/// the body written behind it and the length patched in, so a caller
/// that keeps `out` across requests allocates nothing here.
pub fn encode_request_into(req: &Request, out: &mut BytesMut) {
    frame_into(out, |out| match req {
        Request::Open { tenant, durable } => {
            out.put_u8(T_OPEN);
            put_str(out, tenant);
            out.put_u8(*durable as u8);
        }
        Request::Resume { session } => {
            out.put_u8(T_RESUME);
            out.put_u64_le(session.0);
        }
        Request::Observe { session, events } => {
            out.put_u8(T_OBSERVE);
            out.put_u64_le(session.0);
            put_events(out, events);
        }
        Request::Predict { session, distance } => {
            out.put_u8(T_PREDICT);
            out.put_u64_le(session.0);
            put_varint(out, *distance as u64);
        }
        Request::ObservePredict {
            session,
            distance,
            events,
        } => {
            out.put_u8(T_OBSERVE_PREDICT);
            out.put_u64_le(session.0);
            put_varint(out, *distance as u64);
            put_events(out, events);
        }
        Request::Close { session } => {
            out.put_u8(T_CLOSE);
            out.put_u64_le(session.0);
        }
        Request::Stats => out.put_u8(T_STATS),
    });
}

/// Decodes one request frame **body** (length prefix already stripped).
pub fn decode_request(mut buf: &[u8]) -> Result<Request> {
    let buf = &mut buf;
    let req = match get_u8(buf)? {
        T_OPEN => Request::Open {
            tenant: get_str(buf)?,
            durable: match get_u8(buf)? {
                0 => false,
                1 => true,
                x => return Err(Error::Corrupt(format!("bad durable flag {x}"))),
            },
        },
        T_RESUME => Request::Resume {
            session: SessionId(get_u64(buf)?),
        },
        T_OBSERVE => Request::Observe {
            session: SessionId(get_u64(buf)?),
            events: get_events(buf)?,
        },
        T_PREDICT => Request::Predict {
            session: SessionId(get_u64(buf)?),
            distance: distance_from(get_varint(buf)?)?,
        },
        T_OBSERVE_PREDICT => Request::ObservePredict {
            session: SessionId(get_u64(buf)?),
            distance: distance_from(get_varint(buf)?)?,
            events: get_events(buf)?,
        },
        T_CLOSE => Request::Close {
            session: SessionId(get_u64(buf)?),
        },
        T_STATS => Request::Stats,
        x => return Err(Error::Corrupt(format!("bad request tag {x:#x}"))),
    };
    expect_empty(buf)?;
    Ok(req)
}

/// Encodes `resp` as one frame (length prefix included) in one
/// allocation.
pub fn encode_response(resp: &Response) -> BytesMut {
    let variable = match resp {
        Response::Advice {
            prediction: Some(p),
            ..
        } => 13 * p.distribution.len(),
        Response::Stats { shards } => 10 * ShardStats::FIELDS * shards.len(),
        Response::Error { message } => message.len(),
        _ => 0,
    };
    let mut out = BytesMut::with_capacity(FIXED_BOUND + variable);
    encode_response_into(resp, &mut out);
    out
}

/// Appends `resp` to `out` as one frame; see [`encode_request_into`].
pub fn encode_response_into(resp: &Response, out: &mut BytesMut) {
    frame_into(out, |out| match resp {
        Response::Session { id } => {
            out.put_u8(T_SESSION);
            out.put_u64_le(id.0);
        }
        Response::Advice {
            outcome,
            prediction,
            admission,
        } => {
            out.put_u8(T_ADVICE);
            out.put_u8(outcome_code(*outcome));
            out.put_u8(matches!(admission, Admission::Degraded) as u8);
            match prediction {
                Some(p) => {
                    out.put_u8(1);
                    put_prediction(out, p);
                }
                None => out.put_u8(0),
            }
        }
        Response::Stats { shards } => {
            out.put_u8(T_STATS_REPLY);
            put_varint(out, shards.len() as u64);
            for s in shards {
                for v in s.fields() {
                    put_varint(out, v);
                }
            }
        }
        Response::Closed => out.put_u8(T_CLOSED),
        Response::Busy { retry_after_ms } => {
            out.put_u8(T_BUSY);
            put_varint(out, *retry_after_ms as u64);
        }
        Response::Draining => out.put_u8(T_DRAINING),
        Response::Error { message } => {
            out.put_u8(T_ERROR);
            put_str(out, message);
        }
    });
}

/// Decodes one response frame **body** (length prefix already stripped).
pub fn decode_response(mut buf: &[u8]) -> Result<Response> {
    let buf = &mut buf;
    let resp = match get_u8(buf)? {
        T_SESSION => Response::Session {
            id: SessionId(get_u64(buf)?),
        },
        T_ADVICE => {
            let outcome = outcome_from(get_u8(buf)?)?;
            let admission = if get_u8(buf)? != 0 {
                Admission::Degraded
            } else {
                Admission::Served
            };
            let prediction = match get_u8(buf)? {
                0 => None,
                1 => Some(get_prediction(buf)?),
                x => return Err(Error::Corrupt(format!("bad prediction tag {x}"))),
            };
            Response::Advice {
                outcome,
                prediction,
                admission,
            }
        }
        T_STATS_REPLY => {
            let n = get_varint(buf)? as usize;
            if n > 256 {
                return Err(Error::Corrupt(format!("implausible shard count {n}")));
            }
            let mut shards = Vec::with_capacity(n);
            for _ in 0..n {
                let mut fields = [0u64; ShardStats::FIELDS];
                for f in &mut fields {
                    *f = get_varint(buf)?;
                }
                shards.push(ShardStats::from_fields(fields));
            }
            Response::Stats { shards }
        }
        T_CLOSED => Response::Closed,
        T_BUSY => {
            let v = get_varint(buf)?;
            if v > u32::MAX as u64 {
                return Err(Error::Corrupt(format!("bad retry-after hint {v}")));
            }
            Response::Busy {
                retry_after_ms: v as u32,
            }
        }
        T_DRAINING => Response::Draining,
        T_ERROR => Response::Error {
            message: get_str(buf)?,
        },
        x => return Err(Error::Corrupt(format!("bad response tag {x:#x}"))),
    };
    expect_empty(buf)?;
    Ok(resp)
}

fn distance_from(v: u64) -> Result<u32> {
    if v == 0 || v > u32::MAX as u64 {
        return Err(Error::Corrupt(format!("bad prediction distance {v}")));
    }
    Ok(v as u32)
}

fn expect_empty(buf: &mut &[u8]) -> Result<()> {
    if !buf.is_empty() {
        return Err(Error::Corrupt(format!(
            "{} trailing bytes after frame body",
            buf.len()
        )));
    }
    Ok(())
}

/// Appends one frame to `out`: reserves the length prefix, lets `body`
/// write behind it, and patches the length in.
fn frame_into(out: &mut BytesMut, body: impl FnOnce(&mut BytesMut)) {
    let start = out.len();
    out.put_u32_le(0);
    body(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Borrows one complete frame body out of `buf` and advances `buf` past
/// it, if a whole frame has arrived; `buf` is left alone otherwise.
/// Validates the length prefix against [`MAX_FRAME`] before anything is
/// sized from it.
pub fn next_frame<'a>(buf: &mut &'a [u8]) -> Result<Option<&'a [u8]>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let mut peek = *buf;
    let len = get_u32(&mut peek)? as usize;
    if len > MAX_FRAME {
        return Err(Error::Corrupt(format!("frame length {len} exceeds cap")));
    }
    if peek.len() < len {
        return Ok(None);
    }
    let (body, rest) = peek.split_at(len);
    *buf = rest;
    Ok(Some(body))
}

/// [`next_frame`] with the body copied out.
pub fn split_frame(buf: &mut &[u8]) -> Result<Option<Vec<u8>>> {
    Ok(next_frame(buf)?.map(<[u8]>::to_vec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = encode_request(&req);
        let mut cursor: &[u8] = &bytes;
        let body = split_frame(&mut cursor).unwrap().unwrap();
        assert!(cursor.is_empty());
        assert_eq!(decode_request(&body).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = encode_response(&resp);
        let mut cursor: &[u8] = &bytes;
        let body = split_frame(&mut cursor).unwrap().unwrap();
        assert!(cursor.is_empty());
        assert_eq!(decode_response(&body).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Open {
            tenant: "lulesh".into(),
            durable: false,
        });
        roundtrip_request(Request::Open {
            tenant: "lulesh".into(),
            durable: true,
        });
        roundtrip_request(Request::Resume {
            session: SessionId(0xDEAD_BEEF_0000_0001),
        });
        roundtrip_request(Request::Observe {
            session: SessionId(0x0102_0304_0506_0708),
            events: vec![EventId(0), EventId(7), EventId(u32::MAX)],
        });
        roundtrip_request(Request::Predict {
            session: SessionId(42),
            distance: 16,
        });
        roundtrip_request(Request::ObservePredict {
            session: SessionId(7),
            distance: 1,
            events: vec![],
        });
        roundtrip_request(Request::Close {
            session: SessionId(u64::MAX),
        });
        roundtrip_request(Request::Stats);
    }

    #[test]
    fn responses_roundtrip_bit_exact() {
        roundtrip_response(Response::Session { id: SessionId(9) });
        // Probabilities must survive bit-for-bit, including values that
        // a text roundtrip would perturb.
        let p = Prediction {
            distribution: vec![(EventId(3), 0.1 + 0.2), (EventId(8), f64::MIN_POSITIVE)],
            end_probability: 1.0 / 3.0,
        };
        roundtrip_response(Response::Advice {
            outcome: Some(ObserveOutcome::Matched),
            prediction: Some(p),
            admission: Admission::Served,
        });
        roundtrip_response(Response::Advice {
            outcome: None,
            prediction: None,
            admission: Admission::Degraded,
        });
        roundtrip_response(Response::Stats {
            shards: vec![ShardStats::default(), ShardStats::default()],
        });
        roundtrip_response(Response::Closed);
        roundtrip_response(Response::Busy { retry_after_ms: 25 });
        roundtrip_response(Response::Draining);
        roundtrip_response(Response::Error {
            message: "unknown tenant".into(),
        });
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x77]).is_err());
        assert!(decode_response(&[T_ADVICE, 9]).is_err());
        // Truncated length prefix: incomplete, not an error.
        let mut cursor: &[u8] = &[1, 0];
        assert!(split_frame(&mut cursor).unwrap().is_none());
        // Hostile length prefix: rejected before any allocation.
        let mut cursor: &[u8] = &[0xFF, 0xFF, 0xFF, 0x7F];
        assert!(split_frame(&mut cursor).is_err());
        // Trailing garbage after a valid body.
        let mut bytes = encode_request(&Request::Stats).to_vec();
        bytes.push(0xAB);
        assert!(decode_request(&bytes[4..]).is_err());
    }
}
