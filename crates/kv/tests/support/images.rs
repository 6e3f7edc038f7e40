//! Image bodies — an image's count and entries — that the image
//! decoders are held to by name: the hostile-bytes harness's
//! registrations in `tests/hostile.rs` feed each to every door, and the
//! boot's differential in `src/codec/tests/oracle.rs` holds each door's
//! reader to the oracle's reading of it. Included by `#[path]` in both.

/// Bodies no store writes, each refused by every image decoder: every
/// encoding of a key or a state but the writer's, one line each. Each
/// key holds the vector `[1, 0, 4]` (site 0 wrote it once) and the value
/// `v`, unless the line says otherwise.
#[rustfmt::skip]
pub const REFUSED: [(&str, &[u8]); 32] = [
    ("a shared length on the first key", b"\x01\x09a\x04\x03\x01\x00\x04v"),
    ("a shared length past the key before", b"\x02\x01a\x04\x03\x01\x00\x04v\x11b\x05v"),
    ("a shared prefix left out", b"\x02\x02ab\x04\x03\x01\x00\x04v\x02ac\x05v"),
    ("a shared prefix cut short", b"\x02\x03abc\x04\x03\x01\x00\x04v\x0abd\x05v"),
    ("an empty rest: a repeat", b"\x02\x01a\x04\x03\x01\x00\x04v\x08\x05v"),
    ("an empty rest: a prefix", b"\x02\x02ab\x04\x03\x01\x00\x04v\x08\x05v"),
    ("a descending rest", b"\x02\x01b\x04\x03\x01\x00\x04v\x01a\x05v"),
    ("a descending rest after a prefix", b"\x02\x02ac\x04\x03\x01\x00\x04v\x09b\x05v"),
    ("an empty key after the first", b"\x02\x01a\x04\x03\x01\x00\x04v\x00\x05v"),
    ("a first key not UTF-8", b"\x01\x01\xff\x04\x03\x01\x00\x04v"),
    ("a rest not UTF-8", b"\x02\x01a\x04\x03\x01\x00\x04v\x09\xff\x05v"),
    ("a split character rebuilt wrong", b"\x02\x02\xd0\xba\x04\x03\x01\x00\x04v\x09\xff\x05v"),
    ("an overlong key head on the first key", b"\x02\x87\x00\x01abcdefgh\x04\x03\x01\x00\x04v\x07\x01bcdefghi\x05v"),
    ("an overlong key head after the first", b"\x02\x07\x01abcdefgh\x04\x03\x01\x00\x04v\x87\x00\x01bcdefghi\x05v"),
    ("an overlong escape on the first key", b"\x02\x07\x81\x00abcdefgh\x04\x03\x01\x00\x04v\x07\x01bcdefghi\x05v"),
    ("an overlong escape after the first", b"\x02\x07\x01abcdefgh\x04\x03\x01\x00\x04v\x07\x81\x00bcdefghi\x05v"),
    ("a rest of 1 behind the escape", b"\x02\x01a\x04\x03\x01\x00\x04v\x07\x01b\x05v"),
    ("a repeat flag on the first entry", b"\x01\x01b\x05v"),
    ("an empty vector field", b"\x01\x01b\x04\x00v"),
    ("an overlong state head", b"\x01\x01b\x84\x00\x03\x01\x00\x04v"),
    ("an overlong state head after the first", b"\x02\x01a\x04\x03\x01\x00\x04v\x01b\x85\x00v"),
    ("a tombstone with value bytes", b"\x02\x01a\x00\x03\x01\x00\x04A\x01b\x05v"),
    ("a value shorter than its head says", b"\x01\x01b\x06\x03\x01\x00\x04v"),
    ("a value shorter than its head says, before another", b"\x02\x01a\x06\x03\x01\x00\x04v\x01b\x05v"),
    ("the vector before, written out", b"\x02\x01a\x04\x03\x01\x00\x04v\x01b\x04\x03\x01\x00\x04v"),
    ("a vector's field length overlong", b"\x01\x01a\x04\x83\x00\x01\x00\x04v"),
    ("a vector's element count overlong", b"\x01\x01a\x04\x04\x81\x00\x00\x04v"),
    ("a vector's site overlong", b"\x01\x01a\x04\x04\x01\x80\x00\x04v"),
    ("a vector's value overlong", b"\x01\x01a\x04\x04\x01\x00\x84\x00v"),
    ("a vector naming a site twice", b"\x01\x01x\x04\x05\x02\x05\x04\x05\x04v"),
    ("a byte left in the vector field", b"\x01\x01x\x04\x04\x01\x00\x04\x7fv"),
    ("two keys listed as three", b"\x03\x01a\x04\x03\x01\x00\x04v\x01b\x05v"),
];

/// Bodies a store writes that the writer's tests do not produce from a
/// store: a prefix that splits a character, an empty first key, a first
/// key behind the escape.
#[rustfmt::skip]
pub const READ: [(&str, &[u8]); 3] = [
    ("a split character rebuilt right", b"\x02\x02\xd0\xba\x04\x03\x01\x00\x04v\x09\xbb\x05v"),
    ("an empty first key", b"\x01\x00\x04\x03\x01\x00\x04v"),
    ("a first key behind the escape", b"\x02\x07\x01abcdefgh\x04\x03\x01\x00\x04v9i\x05v"),
];
