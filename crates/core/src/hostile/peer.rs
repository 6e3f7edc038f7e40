//! The hostile-peer enumerator: every contact machine held, over what a
//! peer may send it, to the properties the decoder harness holds every
//! decoder to one layer down.
//!
//! A [`Peer`] is one half of a pinned contact: the frames the honest peer
//! sent, in order, each of its turns ended by a frame on the turn stream
//! (a marker, or its FIN). A link is a byte stream, so where one write
//! ends is nothing a machine sees, and a sequence is its frames alone.
//! [`Peer::check`] derives every sequence within [`DEPTH`] edits of it,
//! breadth first, and feeds each to the machine under test through a
//! closure, which says how the contact ended ([`Ran`]) or which property
//! it broke. The edits:
//!
//! * drop a frame, or send it twice;
//! * swap two adjacent frames, or move one behind the next turn-stream
//!   frame, into the next turn;
//! * send a frame on another stream: a live one, a finished one, one
//!   never opened, the control stream or the turn stream;
//! * splice in one frame of another fixture's transcript
//!   ([`Peer::splices`]).
//!
//! The first four are structural: they reorder the honest frames, and a
//! sequence holds up to [`DEPTH`] of them. The last two put a frame where
//! the honest peer sent none, and are a sequence's only edit. A half of
//! more than [`SMALL_HALF`] frames — hundreds of streams, each walking
//! the same steps — takes one edit, made at the first frame of each kind
//! in each turn (kind: the frame's stream class and first byte, and
//! whether it opens or ends its stream), not at every frame.
//! Crafted payloads no edit reaches, and sequences a machine must refuse
//! in a stated way, are labelled extra inputs ([`Peer::extra`]), each
//! with the refusal the machine must end it in. The first sequence that
//! breaks a property fails the check, named with the edits that made it;
//! breadth first, no sequence of fewer edits breaks one.
//!
//! The harness holds each run to these properties itself:
//!
//! * **Total.** Nothing panics, and the machine ends `Ok` or `Err` having
//!   written at most [`TURNS_PAST`] turns more than the sequence holds
//!   turn-stream frames ([`Fed::max_turns`]; the link the closure feeds
//!   it over refuses a write past that, so a machine that loops ends).
//! * **Capped.** A run asks the allocator for at most
//!   `per_byte · (bytes fed) + fixed` bytes in all ([`Peer::cap`]).
//! * **Refused.** An extra input ends `Err`, refused as it states.
//!
//! The closure holds it to the machine's own: what moves on `Err`, and
//! what an `Ok` may leave. There is no depth knob: the sequences are a
//! function of the transcript.
//!
//! A machine that stopped reading after `read` frames runs alike on every
//! sequence that differs from its own only behind them, so a second edit
//! is made only where the machine read: the search skips no run it
//! would not already have made.

use super::{hex, on_thread};
use crate::rng::{fold, fold_bytes, FOLD_BASIS};
use crate::wire::{self, Frame};
use bytes::BytesMut;
use std::collections::HashSet;
use std::fmt::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Structural edits a sequence holds at most, on a half of at most
/// [`SMALL_HALF`] frames.
pub const DEPTH: usize = 2;

/// A half of more frames than this takes one edit a sequence, at the
/// first frame of each kind in each turn.
pub const SMALL_HALF: usize = 40;

/// A machine writes at most this many turns more than its peer sends turn
/// markers: its opening write and the one that ends the contact.
pub const TURNS_PAST: usize = 2;

/// One sequence as the machine under test is fed it.
#[derive(Debug)]
pub struct Fed {
    frames: Vec<Frame>,
    /// The most writes the machine may make before it ends.
    pub max_turns: usize,
}

impl Fed {
    /// The sequence's frames, encoded back to back.
    pub fn bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(self.len());
        for frame in &self.frames {
            wire::put_frame(&mut buf, frame.stream, &frame.payload);
        }
        buf.to_vec()
    }

    /// The sequence's frames, in order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The bytes the sequence feeds the machine.
    pub fn len(&self) -> usize {
        (self.frames.iter())
            .map(|frame| Frame::encoded_len(frame.stream, frame.payload.len()))
            .sum()
    }

    /// Whether the sequence feeds nothing.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// How a contact over one sequence ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ran {
    /// How it was refused, named as the machine names the error; `None`
    /// where it ended `Ok`.
    pub refused: Option<&'static str>,
    /// Frames the machine asked its link for, the one that found the link
    /// closed included.
    pub read: usize,
    /// Writes the machine made.
    pub turns: usize,
}

impl Ran {
    /// Whether it ended `Ok`.
    pub fn ok(&self) -> bool {
        self.refused.is_none()
    }
}

/// What a check ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checked {
    /// Sequences fed, the honest one and the extra inputs included.
    pub sequences: usize,
    /// Of them, those the machine ended `Ok`.
    pub accepted: usize,
}

/// One half of a pinned contact, and what the machine fed it may ask of
/// the allocator. See the [module](self) for what
/// [`check`](Self::check) holds it to.
pub struct Peer<'a> {
    name: &'a str,
    honest: Vec<Frame>,
    control: u64,
    turn: u64,
    splices: Vec<(String, Frame)>,
    extras: Vec<(&'a str, Vec<Frame>, &'a str)>,
    cap: Option<(usize, usize)>,
}

/// A sequence in the search.
#[derive(Clone)]
struct Seq {
    frames: Vec<Frame>,
    label: String,
    /// The first frame its last edit changed: a later edit is made at or
    /// behind it, so that each set of edits is made in one order.
    touched: usize,
    /// Whether a further edit may be made: only structural edits compose.
    open: bool,
}

enum Edit<'s> {
    Drop,
    Twice,
    Swap,
    Next,
    Stream(u64, &'static str),
    Splice(&'s str, &'s Frame),
}

impl<'a> Peer<'a> {
    /// The half `name`: the frames the honest peer sent, in order, with
    /// the connection's `control` and `turn` streams.
    pub fn new(name: &'a str, honest: Vec<Frame>, control: u64, turn: u64) -> Self {
        Peer {
            name,
            honest,
            control,
            turn,
            splices: Vec::new(),
            extras: Vec::new(),
            cap: None,
        }
    }

    /// The frames of another fixture's transcript, `from`, of which one
    /// is spliced in at each place: one of each kind (control, turn or
    /// session stream, and first byte), the first met.
    pub fn splices(mut self, from: &str, frames: impl IntoIterator<Item = Frame>) -> Self {
        for (at, frame) in frames.into_iter().enumerate() {
            let kind = |frame: &Frame| {
                let class = [self.control, self.turn]
                    .iter()
                    .position(|&s| s == frame.stream);
                (class, frame.payload.first().copied())
            };
            if self
                .splices
                .iter()
                .all(|(_, seen)| kind(seen) != kind(&frame))
            {
                self.splices.push((format!("frame {at} of {from}"), frame));
            }
        }
        self
    }

    /// A crafted sequence, fed as it is, as one edit; the machine must
    /// refuse it as `why`.
    pub fn extra(mut self, label: &'a str, frames: Vec<Frame>, why: &'a str) -> Self {
        self.extras.push((label, frames, why));
        self
    }

    /// A run fed `len` bytes asks for at most `per_byte · len + fixed`
    /// bytes of heap in all.
    pub fn cap(mut self, per_byte: usize, fixed: usize) -> Self {
        self.cap = Some((per_byte, fixed));
        self
    }

    /// Feeds the machine every sequence the half derives, breadth first:
    /// `fresh` makes the machine's state, outside the measurement, and
    /// `run` runs the machine over a sequence from it and returns how it
    /// ended, or the property it broke.
    ///
    /// # Panics
    ///
    /// At the first sequence that breaks a property, naming it; and if
    /// [`Counting`](super::Counting) is not the global allocator, the
    /// cap is not stated, or the honest sequence is refused.
    pub fn check<M>(
        &self,
        mut fresh: impl FnMut() -> M,
        mut run: impl FnMut(M, &Fed) -> Result<Ran, String>,
    ) -> Checked {
        let name = self.name;
        assert!(
            super::counting::installed(),
            "{name}: install optrep_core::hostile::Counting as the global allocator"
        );
        assert!(self.cap.is_some(), "{name}: state its cap");
        let mut checked = Checked::default();
        let mut seen = HashSet::new();
        let mut feed = |seq: &Seq| -> Option<Ran> {
            if !seen.insert(self.hash(seq)) {
                return None;
            }
            let ran = self.feed(seq, fresh(), &mut run);
            checked.sequences += 1;
            checked.accepted += usize::from(ran.ok());
            Some(ran)
        };
        let honest = Seq {
            frames: self.honest.clone(),
            label: String::new(),
            touched: 0,
            open: true,
        };
        let ran = feed(&honest).expect("the first sequence");
        assert!(ran.ok(), "{name}: the honest sequence is refused");
        for &(label, ref frames, why) in &self.extras {
            let extra = Seq {
                frames: frames.clone(),
                label: format!("the extra input \"{label}\""),
                ..honest.clone()
            };
            let Some(ran) = feed(&extra) else { continue };
            if ran.refused != Some(why) {
                let ended = ran
                    .refused
                    .map_or("accepts".into(), |r| format!("refuses as {r}"));
                self.fail(
                    &format!("{ended} an extra input it must refuse as {why}"),
                    &extra,
                );
            }
        }
        // A long half is edited once, at the places `kinds` picks.
        let kinds = (honest.frames.len() > SMALL_HALF).then(|| self.kinds(&honest.frames));
        let depth = if kinds.is_some() { 1 } else { DEPTH };
        let mut frontier = vec![(honest, ran)];
        for _ in 0..depth {
            let mut next = Vec::new();
            for (seq, ran) in &frontier {
                let read = ran.read.min(seq.frames.len() + 1);
                let places: Vec<usize> = match &kinds {
                    Some(kinds) => kinds.iter().copied().filter(|&at| at < read).collect(),
                    None => (seq.touched..read).collect(),
                };
                for at in places {
                    for edit in self.edits(seq, at) {
                        let Some(edited) = self.apply(seq, at, &edit) else {
                            continue;
                        };
                        if edited.touched >= ran.read {
                            continue;
                        }
                        if let Some(ran) = feed(&edited) {
                            if edited.open {
                                next.push((edited, ran));
                            }
                        }
                    }
                }
            }
            frontier = next;
        }
        checked
    }

    /// Runs the machine over `seq` and holds it to totality and its cap.
    fn feed<M>(
        &self,
        seq: &Seq,
        machine: M,
        run: &mut impl FnMut(M, &Fed) -> Result<Ran, String>,
    ) -> Ran {
        let fed = self.fed(seq);
        let (ran, cost) = on_thread(|| catch_unwind(AssertUnwindSafe(|| run(machine, &fed))));
        let ran = match ran {
            Err(_) => self.fail("panics", seq),
            Ok(Err(broke)) => self.fail(&broke, seq),
            Ok(Ok(ran)) => ran,
        };
        if ran.turns > fed.max_turns {
            let what = format!(
                "writes {} turns, past the {} a sequence of {} turn markers allows",
                ran.turns,
                fed.max_turns,
                fed.max_turns - TURNS_PAST
            );
            self.fail(&what, seq);
        }
        let (per_byte, fixed) = self.cap.expect("checked");
        let cap = per_byte * fed.len() + fixed;
        if cost.allocated > cap {
            let what = format!(
                "asks for {} B of heap, past its cap of {per_byte} B a byte + {fixed} B = {cap} B",
                cost.allocated
            );
            self.fail(&what, seq);
        }
        ran
    }

    fn fed(&self, seq: &Seq) -> Fed {
        let markers = (seq.frames.iter())
            .filter(|frame| frame.stream == self.turn)
            .count();
        Fed {
            frames: seq.frames.clone(),
            max_turns: markers + TURNS_PAST,
        }
    }

    /// A sequence's frames, in order, folded: sequences that feed a
    /// machine alike hash alike.
    fn hash(&self, seq: &Seq) -> u64 {
        (seq.frames.iter()).fold(FOLD_BASIS, |hash, frame| {
            fold_bytes(fold(hash, frame.stream), &frame.payload)
        })
    }

    /// Every edit of `seq` at frame `at` (at `seq`'s end, a splice): on the
    /// honest sequence all of them, on an edited one the structural ones.
    fn edits<'s>(&'s self, seq: &Seq, at: usize) -> Vec<Edit<'s>> {
        let mut edits = Vec::new();
        let honest = seq.label.is_empty();
        if let Some(frame) = seq.frames.get(at) {
            edits.extend([Edit::Drop, Edit::Twice, Edit::Swap, Edit::Next]);
            for (stream, why) in self.streams(seq, at).into_iter().filter(|_| honest) {
                if stream != frame.stream {
                    edits.push(Edit::Stream(stream, why));
                }
            }
        }
        if honest {
            let splices = self.splices.iter();
            edits.extend(splices.map(|(from, frame)| Edit::Splice(from, frame)));
        }
        edits
    }

    /// The places a half too long for every frame to be edited is edited:
    /// the first frame of each kind in each turn, and its end.
    fn kinds(&self, frames: &[Frame]) -> Vec<usize> {
        let opens = |at: usize| frames[..at].iter().all(|f| f.stream != frames[at].stream);
        let ends = |at: usize| {
            frames[at + 1..]
                .iter()
                .all(|f| f.stream != frames[at].stream)
        };
        let mut seen = HashSet::new();
        let mut at: Vec<usize> = (0..frames.len())
            .filter(|&at| {
                let frame = &frames[at];
                let turn = frames[..at].iter().filter(|f| f.stream == self.turn);
                let class = [self.control, self.turn]
                    .iter()
                    .position(|&s| s == frame.stream);
                let tag = frame.payload.first().copied();
                seen.insert((turn.count(), class, tag, opens(at), ends(at)))
            })
            .collect();
        at.push(frames.len());
        at
    }

    /// The streams a frame at `at` may be moved to, each with what it is
    /// there: the lowest session stream that has sent before and sends
    /// after, the session stream that sent last of those done, one above
    /// every stream sent on, the control stream and the turn stream.
    fn streams(&self, seq: &Seq, at: usize) -> Vec<(u64, &'static str)> {
        let mut spans: Vec<(u64, usize, usize)> = Vec::new();
        for (i, frame) in seq.frames.iter().enumerate() {
            if frame.stream == self.control || frame.stream == self.turn {
                continue;
            }
            match spans
                .iter_mut()
                .find(|(stream, ..)| *stream == frame.stream)
            {
                Some(span) => span.2 = i,
                None => spans.push((frame.stream, i, i)),
            }
        }
        let live = (spans.iter())
            .filter(|&&(_, first, last)| first < at && at < last)
            .map(|&(stream, ..)| stream)
            .min();
        let done = (spans.iter())
            .filter(|&&(_, _, last)| last < at)
            .max_by_key(|&&(_, _, last)| last)
            .map(|&(stream, ..)| stream);
        let above = (seq.frames.iter())
            .map(|frame| frame.stream)
            .filter(|&stream| stream != self.turn)
            .max()
            .map_or(1, |top| top + 1);
        let mut streams = Vec::new();
        streams.extend(live.map(|stream| (stream, "live")));
        streams.extend(done.map(|stream| (stream, "finished")));
        streams.extend([
            (above, "never opened"),
            (self.control, "control"),
            (self.turn, "turn"),
        ]);
        streams.dedup_by_key(|(stream, _)| *stream);
        streams
    }

    /// `seq` with `edit` made at frame `at`; `None` where it changes
    /// nothing.
    fn apply(&self, seq: &Seq, at: usize, edit: &Edit<'_>) -> Option<Seq> {
        let mut edited = seq.clone();
        let frames = &mut edited.frames;
        let brief = |frame: &Frame| self.brief(frame);
        let (what, touched) = match *edit {
            Edit::Drop => {
                let frame = frames.remove(at);
                (format!("drop frame {at} ({})", brief(&frame)), at)
            }
            Edit::Twice => {
                let twice = frames[at].clone();
                let what = format!("frame {at} ({}) twice", brief(&twice));
                frames.insert(at + 1, twice);
                (what, at + 1)
            }
            Edit::Swap => {
                if frames.get(at + 1).is_none_or(|next| *next == frames[at]) {
                    return None;
                }
                frames.swap(at, at + 1);
                (format!("swap frames {at} and {}", at + 1), at)
            }
            Edit::Next => {
                let frame = frames.remove(at);
                let marker = frames[at..].iter().position(|f| f.stream == self.turn)?;
                let what = format!("frame {at} ({}) into the next turn", brief(&frame));
                frames.insert(at + marker + 1, frame);
                (what, at)
            }
            Edit::Stream(stream, why) => {
                let frame = &mut frames[at];
                let what = format!("frame {at} ({}) on {why} stream {stream}", brief(frame));
                frame.stream = stream;
                edited.open = false;
                (what, at)
            }
            Edit::Splice(from, frame) => {
                frames.insert(at, frame.clone());
                edited.open = false;
                (format!("{from} ({}) spliced in at {at}", brief(frame)), at)
            }
        };
        edited.label = match seq.label.is_empty() {
            true => what,
            false => format!("{}; then {what}", seq.label),
        };
        edited.touched = touched;
        Some(edited)
    }

    /// A frame in a few words: its stream and its first byte.
    fn brief(&self, frame: &Frame) -> String {
        let stream = match frame.stream {
            s if s == self.turn => "turn".to_string(),
            s if s == self.control => "control".to_string(),
            s => format!("stream {s}"),
        };
        match frame.payload.first() {
            Some(tag) => format!("{stream} {tag:#04x}, {} B", frame.payload.len()),
            None => format!("{stream}, empty"),
        }
    }

    fn fail(&self, what: &str, seq: &Seq) -> ! {
        let mut listed = String::new();
        let mut turn = 1;
        let _ = write!(listed, "\n    turn 1:");
        for (at, frame) in seq.frames.iter().enumerate() {
            let _ = write!(
                listed,
                "\n      {at}: {}: {}",
                self.brief(frame),
                hex(&frame.payload)
            );
            if frame.stream == self.turn && at + 1 < seq.frames.len() {
                turn += 1;
                let _ = write!(listed, "\n    turn {turn}:");
            }
        }
        let label = match seq.label.is_empty() {
            true => "the honest sequence",
            false => &seq.label,
        };
        panic!(
            "{}: {what}\n  sequence ({label}), {} frames:{listed}",
            self.name,
            seq.frames.len()
        );
    }
}
