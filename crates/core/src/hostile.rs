//! The one hostile-bytes harness every decoder is registered in, and the
//! workspace's one counting allocator ([`Counting`]) it measures with.
//!
//! Every message a peer, a client or a file hands this workspace reaches
//! it through a decoder, and each decoder is registered once, in its
//! crate's `tests/hostile.rs`, as a [`Decoder`]: a closure that decodes
//! one input whole, the bytes it must accept and those it must refuse,
//! each labelled, and what it may allocate. [`Decoder::check`] then holds
//! it to three properties over every byte string up to [`EXHAUSTIVE_LEN`]
//! bytes long and every truncation, bit flip, seeded byte substitution
//! and one-byte insertion of each labelled input, and each labelled input
//! with a varint of 2⁶² spliced in at each place ([`variants`]):
//!
//! * **Total.** Every input is `Ok` or `Err`; none panics. Every strict
//!   prefix of an accepted input is an `Err` — for a streaming decoder or
//!   a log's reader, the one its registration names "incomplete"
//!   ([`Decoder::torn`]), which no input labelled corrupt is refused
//!   with ([`Decoder::corrupt`]).
//! * **Capped.** Decoding an input of `len` bytes asks the allocator for
//!   at most `per_byte · len + fixed` bytes in all ([`Decoder::cap`]): a
//!   length prefix is checked against what is left before it sizes an
//!   allocation.
//! * **Canonical.** An `Ok` re-encodes to its input byte for byte
//!   ([`Decoder::canonical`]), or the registration says why its format
//!   is not canonical ([`Decoder::not_canonical`]).
//!
//! The first input that breaks a property fails the check, named with the
//! labelled input it came from and its bytes. There is no depth knob: the
//! inputs are a function of the registration.
//!
//! One layer up, [`peer`] holds the machines that act on a peer's decoded
//! frames to the same properties over every sequence a few edits away
//! from an honest peer's.

mod counting;
pub mod peer;

pub use counting::{in_process, on_thread, Cost, Counting};

use crate::rng::{mix_seed, SplitMix64};
use bytes::Bytes;
use std::fmt::{Debug, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every byte string up to this many bytes long is decoded: 65 793 inputs.
pub const EXHAUSTIVE_LEN: usize = 2;

/// The bytes inserted at each place of a labelled input: a zero, a one,
/// the largest and smallest varint byte that ends and that continues a
/// varint, and all ones.
const INSERTED: [u8; 5] = [0x00, 0x01, 0x7f, 0x80, 0xff];

/// 2⁶² as a varint, spliced in at each place of a labelled input, where a
/// length prefix reads it.
const HUGE: [u8; 9] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40];

/// Every truncation, single-bit flip and one-byte insertion of `pinned`,
/// each byte of it XORed with a seeded non-zero byte, a seeded byte
/// inserted at each place, and `pinned` with [`HUGE`] spliced in at each
/// place, each with what was done to it: the inputs [`Decoder::check`]
/// derives from a labelled one. The seed is the input's length, so the
/// variants are a function of the input.
pub fn variants(pinned: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    truncations(pinned).chain(edits(pinned))
}

fn truncations(pinned: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    (0..pinned.len()).map(|cut| (format!("cut to {cut} bytes"), pinned[..cut].to_vec()))
}

fn edits(pinned: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let seeded = |salt: u64| {
        let mut rng = SplitMix64::new(mix_seed(pinned.len() as u64, salt));
        move || rng.next_u64() as u8
    };
    let (mut mask, mut byte) = (seeded(0), seeded(1));
    let flips = (0..pinned.len()).flat_map(move |at| {
        let masks = (0..8).map(|bit| 1u8 << bit).chain([mask().max(1)]);
        masks.map(move |mask| {
            let mut edited = pinned.to_vec();
            edited[at] ^= mask;
            (format!("byte {at} ^ {mask:#04x}"), edited)
        })
    });
    let spliced = |at: usize, what: &[u8]| [&pinned[..at], what, &pinned[at..]].concat();
    let inserts = (0..=pinned.len()).flat_map(move |at| {
        let inserted = INSERTED.into_iter().chain([byte()]).map(move |byte| {
            (
                format!("{byte:#04x} inserted at {at}"),
                spliced(at, &[byte]),
            )
        });
        let huge = (
            format!("a varint of 2^62 inserted at {at}"),
            spliced(at, &HUGE),
        );
        inserted.chain([huge])
    });
    flips.chain(inserts)
}

/// Every byte string up to [`EXHAUSTIVE_LEN`] bytes long.
fn exhaustive() -> impl Iterator<Item = Vec<u8>> {
    (0..=EXHAUSTIVE_LEN).flat_map(|len| {
        (0..1usize << (8 * len)).map(move |n| (0..len).map(|i| (n >> (8 * i)) as u8).collect())
    })
}

/// Re-encodes what a decoder decoded.
type Encode<'a, T> = Box<dyn Fn(&T) -> Vec<u8> + 'a>;

/// Whether an error is what a decoder reads a cut input as.
type Torn<'a, E> = Box<dyn Fn(&E) -> bool + 'a>;

/// What a labelled input must come to.
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    Accepted,
    Refused,
    /// Refused, and not as cut short.
    Corrupt,
}

enum Canonical<'a, T> {
    Unsaid,
    Encode(Encode<'a, T>),
    Not,
}

/// One decoder's registration: how to decode an input whole, how to
/// encode what it decodes, what it may allocate, and its labelled inputs.
/// See the [module](self) for what [`check`](Self::check) holds it to.
pub struct Decoder<'a, T, E> {
    name: &'a str,
    decode: Box<dyn Fn(Bytes) -> Result<T, E> + 'a>,
    canonical: Canonical<'a, T>,
    cap: Option<(usize, usize)>,
    torn: Option<Torn<'a, E>>,
    alphabet: Vec<u8>,
    /// Each labelled input, and what it must come to.
    inputs: Vec<(&'a str, Vec<u8>, Expect)>,
}

impl<'a, T, E: Debug> Decoder<'a, T, E> {
    /// The decoder `name`, which decodes one input whole with `decode`.
    pub fn new(name: &'a str, decode: impl Fn(Bytes) -> Result<T, E> + 'a) -> Self {
        Decoder {
            name,
            decode: Box::new(decode),
            canonical: Canonical::Unsaid,
            cap: None,
            torn: None,
            alphabet: Vec::new(),
            inputs: Vec::new(),
        }
    }

    /// What it decodes re-encodes, with `encode`, to the input it was
    /// decoded from.
    pub fn canonical(mut self, encode: impl Fn(&T) -> Vec<u8> + 'a) -> Self {
        self.canonical = Canonical::Encode(Box::new(encode));
        self
    }

    /// Its format has more than one encoding of a value, or nothing to
    /// re-encode from: `why` says which, and where it is checked instead.
    pub fn not_canonical(mut self, why: &'a str) -> Self {
        assert!(
            !why.is_empty(),
            "{}: say why it is not canonical",
            self.name
        );
        self.canonical = Canonical::Not;
        self
    }

    /// Decoding an input of `len` bytes asks for at most
    /// `per_byte · len + fixed` bytes of heap in all.
    pub fn cap(mut self, per_byte: usize, fixed: usize) -> Self {
        self.cap = Some((per_byte, fixed));
        self
    }

    /// Every strict prefix of an accepted input is refused with an error
    /// `torn` holds, not just with some error: what a streaming decoder or
    /// a log's reader takes as "incomplete", not as corrupt.
    pub fn torn(mut self, torn: impl Fn(&E) -> bool + 'a) -> Self {
        self.torn = Some(Box::new(torn));
        self
    }

    /// Each byte of `alphabet` is put in place of each byte of every
    /// labelled input, as well: a text format's characters, of which bit
    /// flips reach only a few.
    pub fn substitutes(mut self, alphabet: impl IntoIterator<Item = u8>) -> Self {
        self.alphabet = alphabet.into_iter().collect();
        self
    }

    /// `bytes` decode, and seed the variants.
    pub fn accepts(mut self, label: &'a str, bytes: impl AsRef<[u8]>) -> Self {
        self.inputs
            .push((label, bytes.as_ref().to_vec(), Expect::Accepted));
        self
    }

    /// `bytes` are refused, and seed the variants.
    pub fn rejects(mut self, label: &'a str, bytes: impl AsRef<[u8]>) -> Self {
        self.inputs
            .push((label, bytes.as_ref().to_vec(), Expect::Refused));
        self
    }

    /// `bytes` are refused, not with the error [`torn`](Self::torn)
    /// holds — they are whole, and no byte read behind them makes them
    /// decode — and seed the variants.
    pub fn corrupt(mut self, label: &'a str, bytes: impl AsRef<[u8]>) -> Self {
        self.inputs
            .push((label, bytes.as_ref().to_vec(), Expect::Corrupt));
        self
    }

    /// Holds the decoder to its three properties over every input the
    /// registration derives.
    ///
    /// # Panics
    ///
    /// At the first input that breaks one, naming it; and if
    /// [`Counting`] is not the global allocator, the cap is not stated,
    /// canonical form is neither checked nor excused, or no input is
    /// accepted.
    pub fn check(&self) {
        let name = self.name;
        assert!(
            counting::installed(),
            "{name}: install optrep_core::hostile::Counting as the global allocator"
        );
        assert!(self.cap.is_some(), "{name}: state its cap");
        assert!(
            !matches!(self.canonical, Canonical::Unsaid),
            "{name}: check canonical form or say why not"
        );
        assert!(
            self.inputs
                .iter()
                .any(|&(_, _, expect)| expect == Expect::Accepted),
            "{name}: label an input it accepts"
        );
        assert!(
            self.torn.is_some() || self.inputs.iter().all(|&(_, _, e)| e != Expect::Corrupt),
            "{name}: say what a cut input is refused with, to tell a corrupt one from it"
        );
        let torn = |e: &E| self.torn.as_ref().is_none_or(|torn| torn(e));
        for &(label, ref pinned, expect) in &self.inputs {
            let origin = || format!("\"{label}\"");
            let accepted = expect == Expect::Accepted;
            match self.run(pinned, &origin) {
                Ok(()) if !accepted => {
                    self.fail("accepts an input it must refuse", pinned, &origin)
                }
                Err(e) if accepted => {
                    let what = format!("refuses an input it must accept: {e:?}");
                    self.fail(&what, pinned, &origin)
                }
                Err(e) if expect == Expect::Corrupt && torn(&e) => {
                    let what = format!("reads a corrupt input as cut short: {e:?}");
                    self.fail(&what, pinned, &origin)
                }
                _ => {}
            }
            for (what, cut) in truncations(pinned) {
                let origin = || format!("\"{label}\", {what}");
                match self.run(&cut, &origin) {
                    Err(e) if torn(&e) => {}
                    _ if !accepted => {}
                    other => {
                        let what = format!("reads a strict prefix as {other:?}");
                        self.fail(&what, &cut, &origin)
                    }
                }
            }
            for (what, edited) in edits(pinned) {
                let _ = self.run(&edited, &|| format!("\"{label}\", {what}"));
            }
            for at in 0..pinned.len() {
                for &byte in &self.alphabet {
                    let mut edited = pinned.clone();
                    edited[at] = byte;
                    let _ = self.run(&edited, &|| format!("\"{label}\", {byte:#04x} at {at}"));
                }
            }
        }
        for input in exhaustive() {
            let _ = self.run(&input, &|| "every short input".into());
        }
    }

    /// Decodes `input` and checks it is total, capped and canonical;
    /// returns the error it was refused with, if it was.
    fn run(&self, input: &[u8], origin: &dyn Fn() -> String) -> Result<(), E> {
        let bytes = Bytes::copy_from_slice(input);
        let (decoded, cost) = on_thread(|| catch_unwind(AssertUnwindSafe(|| (self.decode)(bytes))));
        let Ok(decoded) = decoded else {
            self.fail("panics", input, origin);
        };
        let (per_byte, fixed) = self.cap.expect("checked");
        let cap = per_byte * input.len() + fixed;
        if cost.allocated > cap {
            let what = format!(
                "asks for {} B of heap, past its cap of {per_byte} B a byte + {fixed} B = {cap} B",
                cost.allocated
            );
            self.fail(&what, input, origin);
        }
        let value = decoded?;
        if let Canonical::Encode(encode) = &self.canonical {
            let Ok(encoded) = catch_unwind(AssertUnwindSafe(|| encode(&value))) else {
                self.fail("panics re-encoding what it accepted", input, origin);
            };
            if encoded != input {
                let what = format!(
                    "accepts an encoding its writer does not write: {}",
                    hex(&encoded)
                );
                self.fail(&what, input, origin);
            }
        }
        Ok(())
    }

    fn fail(&self, what: &str, input: &[u8], origin: &dyn Fn() -> String) -> ! {
        panic!(
            "{}: {what}\n  input ({}): {}",
            self.name,
            origin(),
            hex(input)
        );
    }
}

/// `bytes` in hex, cut after 256 of them.
fn hex(bytes: &[u8]) -> String {
    let mut out = String::new();
    for byte in bytes.iter().take(256) {
        let _ = write!(out, "{byte:02x}");
    }
    if bytes.len() > 256 {
        let _ = write!(out, "… ({} bytes)", bytes.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_short_input_once() {
        let all: Vec<Vec<u8>> = exhaustive().collect();
        assert_eq!(all.len(), 1 + 256 + 65_536);
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn the_huge_varint_is_two_to_the_sixty_second() {
        let mut buf = &HUGE[..];
        assert_eq!(crate::wire::get_varint(&mut buf), Ok(1 << 62));
        assert!(buf.is_empty());
    }

    #[test]
    fn variants_of_three_bytes() {
        // 3 cuts, 3 bytes × (8 bit flips + a seeded XOR), 4 places ×
        // (5 inserts + a seeded one + a huge varint).
        assert_eq!(variants(b"abc").count(), 3 + 3 * 9 + 4 * 7);
        assert!(variants(b"abc").eq(variants(b"abc")), "seeded alike");
    }
}
