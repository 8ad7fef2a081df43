//! Decode-side fuzz for `serve::proto`: the server parses frames off
//! the network, so the decoders must treat every byte string as
//! hostile. Under arbitrary input, truncation, and point mutation they
//! may only return `Err` — never panic, and never allocate past the
//! frame cap on the say-so of a length prefix. The in-place paths
//! (`encode_*_into`, `next_frame`) are held to the one-shot ones
//! (`encode_*`, `split_frame`) byte for byte and verdict for verdict.

use proptest::collection::vec;
use proptest::prelude::*;

use bytes::{BufMut, BytesMut};
use pythia_core::event::EventId;
use pythia_core::predict::{ObserveOutcome, Prediction};
use pythia_serve::proto::{
    decode_request, decode_response, encode_request, encode_request_into, encode_response,
    encode_response_into, next_frame, split_frame, MAX_FRAME,
};
use pythia_serve::{Admission, Request, Response, SessionId, ShardStats};

fn byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

/// Any request: `kind` picks the variant, the other draws fill it.
fn request() -> impl Strategy<Value = Request> {
    (
        0u8..7,
        0u64..u64::MAX,
        1u32..u32::MAX,
        vec(0u32..u32::MAX, 0..96),
    )
        .prop_map(|(kind, id, distance, raw)| {
            let session = SessionId(id);
            let events = raw.iter().map(|&e| EventId(e)).collect();
            match kind {
                0 => Request::Open {
                    tenant: format!("tenant-{}", raw.len()),
                    durable: id % 2 == 0,
                },
                1 => Request::Resume { session },
                2 => Request::Observe { session, events },
                3 => Request::Predict { session, distance },
                4 => Request::ObservePredict {
                    session,
                    distance,
                    events,
                },
                5 => Request::Close { session },
                _ => Request::Stats,
            }
        })
}

/// Any response; weights are arbitrary bit patterns, NaNs included.
fn response() -> impl Strategy<Value = Response> {
    (
        0u8..8,
        0u64..u64::MAX,
        vec((0u32..u32::MAX, 0u64..u64::MAX), 0..24),
    )
        .prop_map(|(kind, n, raw)| match kind {
            0 => Response::Session { id: SessionId(n) },
            1 | 2 => Response::Advice {
                outcome: [
                    None,
                    Some(ObserveOutcome::Matched),
                    Some(ObserveOutcome::Reseeded),
                    Some(ObserveOutcome::Unknown),
                ][(n % 4) as usize],
                prediction: (kind == 1).then(|| Prediction {
                    distribution: raw
                        .iter()
                        .map(|&(e, bits)| (EventId(e), f64::from_bits(bits)))
                        .collect(),
                    end_probability: f64::from_bits(n),
                }),
                admission: if n % 8 < 4 {
                    Admission::Served
                } else {
                    Admission::Degraded
                },
            },
            3 => Response::Stats {
                shards: raw
                    .iter()
                    .map(|&(e, bits)| ShardStats {
                        opens: e as u64,
                        events: bits,
                        ..ShardStats::default()
                    })
                    .collect(),
            },
            4 => Response::Closed,
            5 => Response::Busy {
                retry_after_ms: n as u32,
            },
            6 => Response::Draining,
            _ => Response::Error {
                message: format!("error {n}"),
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes: both decoders and the framer return, with
    /// whatever verdict, instead of panicking.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(byte(), 0..256)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let mut view = &bytes[..];
        let _ = split_frame(&mut view);
    }

    /// A length prefix past the frame cap is rejected up front — the
    /// framer must not size a buffer from an unvalidated length.
    #[test]
    fn oversized_length_prefix_is_rejected(
        excess in 1u64..(u32::MAX as u64 - MAX_FRAME as u64),
        tail in vec(byte(), 0..16),
    ) {
        let len = (MAX_FRAME as u64 + excess) as u32;
        let mut frame = len.to_le_bytes().to_vec();
        frame.extend_from_slice(&tail);
        let mut view = &frame[..];
        prop_assert!(split_frame(&mut view).is_err(), "length {len} accepted");
    }

    /// Every truncation of a valid frame is "incomplete, wait for more"
    /// or a decode error — never a panic, never a phantom frame.
    #[test]
    fn truncations_never_panic(
        session in 0u64..u64::MAX,
        distance in 0u32..1024,
        events in vec(0u32..10_000, 0..64),
    ) {
        let frame = encode_request(&Request::ObservePredict {
            session: SessionId(session),
            distance,
            events: events.iter().map(|&e| EventId(e)).collect(),
        });
        for cut in 0..frame.len() {
            let mut view = &frame[..cut];
            // A truncated frame must never parse as complete (the length
            // prefix covers the whole body) — `Ok(None)` ("wait for more
            // bytes") and `Err` are the only acceptable verdicts.
            if let Ok(Some(_)) = split_frame(&mut view) {
                prop_assert!(false, "cut {cut} yielded a full frame");
            }
            // Feeding the cut directly to the body decoder (as if the
            // framing lied) must also fail cleanly.
            if cut > 4 {
                prop_assert!(decode_request(&frame[4..cut]).is_err());
            }
        }
    }

    /// Point mutations of a valid response frame decode to an error or
    /// to some other well-formed response — never a panic.
    #[test]
    fn mutated_responses_never_panic(
        retry in 0u32..u32::MAX,
        pos in 0usize..64,
        xor in 1u16..256,
    ) {
        let frame = encode_response(&Response::Busy { retry_after_ms: retry });
        let mut mutated = frame.to_vec();
        let i = pos % mutated.len();
        mutated[i] ^= xor as u8;
        let mut view = &mutated[..];
        if let Ok(Some(body)) = split_frame(&mut view) {
            let _ = decode_response(&body);
        }
    }

    /// Structured roundtrip: numeric fields and event batches survive
    /// the wire bit for bit.
    #[test]
    fn request_roundtrip(
        session in 0u64..u64::MAX,
        distance in 0u32..u32::MAX,
        events in vec(0u32..u32::MAX, 0..128),
    ) {
        let req = Request::ObservePredict {
            session: SessionId(session),
            distance,
            events: events.iter().map(|&e| EventId(e)).collect(),
        };
        let frame = encode_request(&req);
        let mut view = &frame[..];
        let body = split_frame(&mut view).unwrap().expect("complete frame");
        prop_assert!(view.is_empty(), "trailing bytes after the frame");
        let decoded = decode_request(&body).unwrap();
        prop_assert_eq!(req, decoded);
    }

    /// Encoding in place, behind whatever the buffer already holds,
    /// writes exactly the one-shot encoder's bytes and touches nothing
    /// before them.
    #[test]
    fn in_place_encoding_appends_the_one_shot_bytes(
        req in request(),
        resp in response(),
        prefix in vec(byte(), 1..32),
    ) {
        let mut out = BytesMut::new();
        out.put_slice(&prefix);
        encode_request_into(&req, &mut out);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &encode_request(&req)[..]);

        let mut out = BytesMut::new();
        out.put_slice(&prefix);
        encode_response_into(&resp, &mut out);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &encode_response(&resp)[..]);
    }

    /// Two frames appended to one buffer come back as those two, in
    /// order, with the cursor at the end and nothing after them.
    #[test]
    fn appended_frames_come_back_one_by_one(req in request(), resp in response()) {
        let mut out = BytesMut::new();
        encode_request_into(&req, &mut out);
        encode_response_into(&resp, &mut out);
        let mut view = &out[..];
        let first = next_frame(&mut view).unwrap().expect("first frame");
        prop_assert_eq!(decode_request(first).unwrap(), req);
        let second = next_frame(&mut view).unwrap().expect("second frame");
        // Re-encoding compares weights by their bits (a NaN != itself).
        prop_assert_eq!(
            &encode_response(&decode_response(second).unwrap())[..],
            &encode_response(&resp)[..]
        );
        prop_assert!(view.is_empty());
        prop_assert!(next_frame(&mut view).unwrap().is_none());
    }

    /// The borrowing and the copying framer agree everywhere: on every
    /// truncation of a valid frame, on oversized length prefixes and on
    /// garbage they give the same verdict, the same body and the same
    /// cursor. (`split_frame` copies only what `next_frame` returned, so
    /// neither allocates before the length check.)
    #[test]
    fn next_frame_and_split_frame_agree(
        req in request(),
        garbage in vec(byte(), 0..64),
        excess in 1u64..(u32::MAX as u64 - MAX_FRAME as u64),
    ) {
        let frame = encode_request(&req);
        let oversized = ((MAX_FRAME as u64 + excess) as u32).to_le_bytes();
        let mut inputs: Vec<&[u8]> = (0..=frame.len()).map(|cut| &frame[..cut]).collect();
        inputs.push(&oversized);
        inputs.push(&garbage);
        for input in inputs {
            let (mut borrowed, mut copied) = (input, input);
            match (next_frame(&mut borrowed), split_frame(&mut copied)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.map(<[u8]>::to_vec), b),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "verdicts differ: {a:?} / {b:?}"),
            }
            prop_assert_eq!(borrowed, copied);
        }
    }
}
