//! The hostile-peer enumerator (`optrep_core::hostile::peer`) over a
//! toy half: what it feeds, what it skips, and how it names a failure.

use bytes::Bytes;
use optrep_core::hostile::peer::{Fed, Peer, Ran};
use optrep_core::hostile::Counting;
use optrep_core::wire::Frame;

#[global_allocator]
static COUNTING: Counting = Counting;

fn frame(stream: u64, payload: &'static [u8]) -> Frame {
    Frame {
        stream,
        payload: Bytes::from_static(payload),
    }
}

const TURN: u64 = u64::MAX;

fn half() -> Peer<'static> {
    let frames = vec![
        frame(0, b"a"),
        frame(TURN, b""),
        frame(1, b"b"),
        frame(2, b"c"),
        frame(TURN, b"\x01"),
    ];
    Peer::new("half", frames, 0, TURN).cap(usize::MAX / 1024, 0)
}

/// A machine that reads every frame and accepts whatever it is fed.
fn accepting(_: (), fed: &Fed) -> Result<Ran, String> {
    let read = fed.frames().len() + 1;
    Ok(Ran {
        refused: None,
        read,
        turns: 0,
    })
}

#[test]
fn every_edit_of_a_small_half_is_fed_once() {
    let once = half().check(|| (), accepting);
    let twice = half().check(|| (), accepting);
    assert_eq!(once, twice, "a function of the transcript");
    assert!(once.sequences > 100, "{once:?}");
    assert_eq!(once.accepted, once.sequences);
}

#[test]
fn a_machine_that_stops_reading_prunes_what_lies_behind() {
    let stopping = |_: (), _: &Fed| {
        Ok(Ran {
            refused: Some("stopped"),
            read: 1,
            turns: 0,
        })
    };
    let mut honest = true;
    let checked = half().check(
        || (),
        |(), fed| match std::mem::take(&mut honest) {
            true => accepting((), fed),
            false => stopping((), fed),
        },
    );
    let all = half().check(|| (), accepting);
    assert!(checked.sequences < all.sequences / 3, "{checked:?} {all:?}");
}

#[test]
#[should_panic(expected = "half: broke it\n  sequence (drop frame 0")]
fn the_first_failure_is_one_edit_away() {
    half().check(
        || (),
        |(), fed| match fed.frames().first() {
            Some(frame) if frame.payload[..] == *b"a" => accepting((), fed),
            _ => Err("broke it".into()),
        },
    );
}

#[test]
#[should_panic(expected = "writes 9 turns, past the 4")]
fn a_machine_that_writes_on_is_not_total() {
    half().check(
        || (),
        |(), _| {
            Ok(Ran {
                refused: None,
                read: 1,
                turns: 9,
            })
        },
    );
}

#[test]
#[should_panic(
    expected = "half: accepts an extra input it must refuse as refused\n  sequence (the extra input \"crafted\")"
)]
fn an_extra_input_the_machine_accepts_fails_the_check() {
    let crafted = vec![frame(0, b"z")];
    half()
        .extra("crafted", crafted, "refused")
        .check(|| (), accepting);
}
