//! The wire format is frozen: `golden/wire_v1.hex` holds one encoded
//! frame per `Request` and `Reply` variant, generated by the encoder as
//! it stood *before* the copy-free framing rewrite. Every encoder this
//! crate has must reproduce those bytes exactly and decode them back to
//! the same value, so peers built either side of that change interoperate.
//! Never regenerate the fixture from the current encoder.

use worlds_net::{nack, read_frame, Frame, Reply, Request};

const GOLDEN: &str = include_str!("golden/wire_v1.hex");

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Req(Request),
    Rep(Reply),
}

impl Value {
    fn kind(&self) -> u8 {
        match self {
            Value::Req(r) => r.kind(),
            Value::Rep(r) => r.kind(),
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        match self {
            Value::Req(r) => r.encode_payload(),
            Value::Rep(r) => r.encode_payload(),
        }
    }

    fn encode_frame(&self, corr: u64) -> Vec<u8> {
        match self {
            Value::Req(r) => r.encode_frame(corr),
            Value::Rep(r) => r.encode_frame(corr),
        }
    }

    fn decode(&self, kind: u8, payload: &[u8]) -> Value {
        match self {
            Value::Req(_) => Value::Req(Request::decode(kind, payload).unwrap()),
            Value::Rep(_) => Value::Rep(Reply::decode(kind, payload).unwrap()),
        }
    }

    fn decode_owned(&self, kind: u8, payload: Vec<u8>) -> Value {
        match self {
            Value::Req(_) => Value::Req(Request::decode_owned(kind, payload).unwrap()),
            Value::Rep(_) => Value::Rep(Reply::decode_owned(kind, payload).unwrap()),
        }
    }
}

/// One case per variant, in fixture order: name, correlation id, value.
fn cases() -> Vec<(&'static str, u64, Value)> {
    let req = Value::Req;
    let rep = Value::Rep;
    vec![
        ("ping", 1, req(Request::Ping)),
        (
            "rfork",
            0xDEAD_BEEF_CAFE,
            req(Request::Rfork {
                image: (0..300u32).map(|i| (i * 7) as u8).collect(),
            }),
        ),
        (
            "commit_back",
            3,
            req(Request::CommitBack {
                base: 42,
                pages: vec![(0, vec![9; 32]), (17, vec![0; 32]), (3, Vec::new())],
            }),
        ),
        ("discard", 4, req(Request::Discard { world: u64::MAX })),
        (
            "telemetry",
            6,
            req(Request::Telemetry {
                payload: vec![0, 1, 2, 0xFF],
            }),
        ),
        (
            "hash_probe",
            7,
            req(Request::HashProbe {
                hashes: vec![0xDEAD_BEEF, u64::MAX, 1],
            }),
        ),
        (
            "session_open",
            8,
            req(Request::SessionOpen {
                name: "tenant-a".into(),
                max_live_worlds: 8,
                max_resident_frames: 1024,
                vt_budget_ns: u64::MAX,
            }),
        ),
        (
            "session_spawn",
            9,
            req(Request::SessionSpawn {
                session: 7,
                spin_ns: 1_000,
                writes: vec![(0, vec![3; 64]), (9, Vec::new())],
            }),
        ),
        (
            "session_commit",
            10,
            req(Request::SessionCommit {
                session: 7,
                world: 42,
            }),
        ),
        (
            "session_fork",
            11,
            req(Request::SessionFork {
                session: 7,
                name: "child".into(),
            }),
        ),
        (
            "session_close",
            12,
            req(Request::SessionClose {
                session: 7,
                adopt: true,
            }),
        ),
        ("ack", u64::MAX, rep(Reply::Ack { world: 123 })),
        (
            "nack",
            14,
            rep(Reply::Nack {
                code: nack::BAD_IMAGE,
                detail: "no such base".into(),
            }),
        ),
        (
            "telemetry_reply",
            15,
            rep(Reply::Telemetry {
                payload: vec![9, 8, 7],
            }),
        ),
        (
            "present",
            16,
            // 17 bits: the bitmap spills into a third byte.
            rep(Reply::Present {
                present: (0..17).map(|i| i % 3 == 0).collect(),
            }),
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
        .collect()
}

#[test]
fn every_encoder_reproduces_the_golden_bytes_and_decodes_them_back() {
    let golden: Vec<(&str, &str)> = GOLDEN
        .lines()
        .map(|l| l.split_once(' ').expect("name hex"))
        .collect();
    let cases = cases();
    assert_eq!(golden.len(), cases.len(), "one fixture line per variant");
    for ((name, corr, value), (gold_name, gold_hex)) in cases.iter().zip(golden) {
        assert_eq!(*name, gold_name, "fixture order");
        // The direct framer and the Frame-shaped path both match.
        assert_eq!(hex(&value.encode_frame(*corr)), gold_hex, "{name}: direct");
        let framed = Frame::new(value.kind(), *corr, value.encode_payload());
        assert_eq!(hex(&framed.encode()), gold_hex, "{name}: via Frame");

        // Both readers accept the old bytes and yield the same value.
        let wire = unhex(gold_hex);
        let (frame, size) = read_frame(&mut &wire[..]).unwrap();
        assert_eq!(size, wire.len(), "{name}: wire size");
        assert_eq!(
            frame,
            Frame::decode(&wire).unwrap(),
            "{name}: readers agree"
        );
        assert_eq!(frame.corr, *corr, "{name}: corr");
        assert_eq!(&value.decode(frame.kind, &frame.payload), value, "{name}");
        assert_eq!(
            &value.decode_owned(frame.kind, frame.payload),
            value,
            "{name}: owned"
        );
    }
}
