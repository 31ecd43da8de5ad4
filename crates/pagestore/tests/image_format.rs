//! The one checkpoint image format, pinned.
//!
//! `golden/image.hex` holds one image per shape — full, delta,
//! header-only — written once by the single encoder. The encoder must
//! keep reproducing those bytes and `restore` must keep reading them;
//! never regenerate the fixture from the current encoder. A retired shape
//! loses its line, and every other line keeps its bytes. The rest of the
//! file holds the decoder to the rule for bytes that crossed a network:
//! *error, never panic, `world_count` unchanged*.

use worlds_pagestore::{
    checkpoint, checkpoint_content, checkpoint_delta, delta_manifest, restore, PageStore, WorldId,
};

const GOLDEN: &str = include_str!("golden/image.hex");
const PAGE: usize = 16;
const HEADER: usize = 32;

/// A sender holding a base world (pages 0..4 of `vpn + 1`) and a child of
/// it that rewrites page 2, adds page 9 and rewrites page 3 to the bytes
/// of base page 0.
struct Sender {
    store: PageStore,
    base: WorldId,
    child: WorldId,
}

fn sender() -> Sender {
    let store = PageStore::new(PAGE);
    let base = store.create_world();
    for vpn in 0..4u64 {
        store.write(base, vpn, 0, &[vpn as u8 + 1; PAGE]).unwrap();
    }
    let child = store.fork_world(base).unwrap();
    store.write(child, 2, 0, &[0xEE; PAGE]).unwrap();
    store.write(child, 3, 0, &[1; PAGE]).unwrap();
    store.write(child, 9, 0, b"new page").unwrap();
    Sender { store, base, child }
}

/// A receiver that has restored the sender's base; returns the replica's
/// id.
fn receiver(s: &Sender) -> (PageStore, WorldId) {
    let there = PageStore::new(PAGE);
    let replica = restore(&there, &checkpoint(&s.store, s.base).unwrap()).unwrap();
    (there, replica)
}

/// The three shapes in fixture order, each encoded against `replica` as
/// the receiver-side base, with a receiver ready to restore it.
fn shapes() -> Vec<(&'static str, Vec<u8>, PageStore)> {
    let s = sender();
    let (_, replica) = receiver(&s);
    let twin = s.store.fork_world(s.base).unwrap();
    vec![
        (
            "full",
            checkpoint(&s.store, s.child).unwrap(),
            PageStore::new(PAGE),
        ),
        (
            "delta_inline",
            checkpoint_delta(&s.store, s.child, s.base, replica.raw()).unwrap(),
            receiver(&s).0,
        ),
        (
            "header_only",
            checkpoint_delta(&s.store, twin, s.base, replica.raw()).unwrap(),
            receiver(&s).0,
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
fn the_encoder_reproduces_the_golden_bytes_and_restore_reads_them_back() {
    let s = sender();
    let golden: Vec<(&str, &str)> = GOLDEN
        .lines()
        .map(|l| l.split_once(' ').expect("name hex"))
        .collect();
    let shapes = shapes();
    assert_eq!(golden.len(), shapes.len(), "one fixture line per shape");
    for ((name, image, there), (gold_name, gold_hex)) in shapes.into_iter().zip(golden) {
        assert_eq!(name, gold_name, "fixture order");
        assert_eq!(hex(&image), gold_hex, "{name}: encoder drifted");
        let world = restore(&there, &unhex(gold_hex)).expect(name);
        let want = if name == "header_only" {
            s.base
        } else {
            s.child
        };
        for vpn in 0..12 {
            assert_eq!(
                there.read_vec(world, vpn, 0, PAGE).unwrap(),
                s.store.read_vec(want, vpn, 0, PAGE).unwrap(),
                "{name}: vpn {vpn}"
            );
        }
        there.verify_refcounts().unwrap();
    }
}

#[test]
fn the_three_encoders_are_one_writer() {
    let s = sender();
    let manifest = delta_manifest(&s.store, s.child, s.base).unwrap();
    // A content image is the delta its manifest names.
    assert_eq!(
        checkpoint_delta(&s.store, s.child, s.base, 7).unwrap(),
        checkpoint_content(&s.store, s.child, 7, &manifest, &[false; 3]).unwrap(),
    );
    // A full image is a delta against the empty base, which is base 0.
    let empty = s.store.create_world();
    assert_eq!(
        checkpoint(&s.store, s.child).unwrap(),
        checkpoint_delta(&s.store, s.child, empty, 0).unwrap(),
    );
}

/// The fixture's retired `delta_refs` line, verbatim: the delta of
/// `sender()`'s child with page 3 shipped as a kind-1 record, a ref to the
/// content hash of base page 0, instead of inline.
const RETIRED_DELTA_REFS: &str = "4d57434b030000001000000000000000030000000000000001000000000000\
     00020000000000000000eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee03000000000000000103ccda584a5b6290\
     0900000000000000006e657720706167650000000000000000";

#[test]
fn a_ref_record_is_rejected_before_any_world_exists() {
    let (there, replica) = receiver(&sender());
    let image = unhex(RETIRED_DELTA_REFS);
    // The image names a base the receiver holds: only the record is wrong.
    assert_eq!(image[24..32], replica.raw().to_le_bytes());
    let (worlds, forks) = (there.world_count(), there.stats().forks);
    let err = restore(&there, &image).unwrap_err();
    assert!(format!("{err}").contains("unknown record kind 1"), "{err}");
    assert_eq!(there.world_count(), worlds, "no world left behind");
    assert_eq!(there.stats().forks, forks, "the base was never forked");
    there.verify_refcounts().unwrap();
}

#[test]
fn every_truncation_is_an_error_and_builds_no_world() {
    for (name, image, there) in shapes() {
        let before = there.world_count();
        for cut in 0..image.len() {
            assert!(restore(&there, &image[..cut]).is_err(), "{name}: cut {cut}");
            assert_eq!(there.world_count(), before, "{name}: cut {cut} leaked");
        }
        // One byte too many is as wrong as one too few.
        let mut long = image.clone();
        long.push(0);
        assert!(restore(&there, &long).is_err(), "{name}: trailing byte");
        assert_eq!(there.world_count(), before, "{name}: trailing byte leaked");
        there.verify_refcounts().unwrap();
    }
}

#[test]
fn every_corrupt_header_byte_is_an_error_and_builds_no_world() {
    for (name, image, there) in shapes() {
        let before = there.world_count();
        for at in 0..HEADER {
            let mut bad = image.clone();
            bad[at] ^= 0xFF;
            assert!(restore(&there, &bad).is_err(), "{name}: byte {at}");
            assert_eq!(there.world_count(), before, "{name}: byte {at} leaked");
        }
    }
}

/// Any single flipped bit anywhere: the image may still be a valid one
/// (a page byte, a vpn), but restore never panics, and an error leaves
/// the receiver exactly as it was.
#[test]
fn no_single_bit_flip_panics_or_leaks() {
    for (name, image, there) in shapes() {
        let before = there.world_count();
        for bit in 0..image.len() * 8 {
            let mut bad = image.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            if let Ok(world) = restore(&there, &bad) {
                there.drop_world(world).unwrap();
            }
            assert_eq!(there.world_count(), before, "{name}: bit {bit}");
        }
        there.verify_refcounts().unwrap();
    }
}
