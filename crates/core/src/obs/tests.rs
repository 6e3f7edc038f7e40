use super::*;
use crate::causality::Causality;
use crate::rng::{cases, SplitMix64};
use crate::sync::ReceiverStats;
use std::borrow::Cow;

#[test]
fn counter_sink_absorbs_and_snapshots() {
    let sink = CounterSink::new();
    sink.absorb(&SessionTotals {
        sessions: 1,
        compare_bytes: 3,
        meta_bytes: 10,
        framing_bytes: 2,
        payload_bytes: 20,
        meta_elements: 4,
        delta: 2,
        gamma: 2,
        skips: 1,
    });
    sink.record_fast_forward();
    sink.record_contact(2);
    let s = sink.snapshot();
    assert_eq!(s.sessions, 1);
    assert_eq!(s.compare_bytes, 3);
    assert_eq!(s.meta_bytes, 10);
    assert_eq!(s.framing_bytes, 2);
    assert_eq!(s.payload_bytes, 20);
    assert_eq!(s.meta_elements, 4);
    assert_eq!(s.delta_total, 2);
    assert_eq!(s.gamma_total, 2);
    assert_eq!(s.skips_total, 1);
    assert_eq!(s.fast_forwards, 1);
    assert_eq!(s.contacts, 1);
    assert_eq!(s.round_trips, 2);
    // Clone preserves every counter.
    assert_eq!(sink.clone().snapshot(), s);
}

#[test]
fn receiver_stats_convert_to_totals() {
    let stats = ReceiverStats {
        delta: 3,
        gamma: 2,
        skips: 1,
        elements_received: 5,
    };
    let t = stats.totals();
    assert_eq!(t.sessions, 1);
    assert_eq!(t.delta, 3);
    assert_eq!(t.gamma, 2);
    assert_eq!(t.skips, 1);
    assert_eq!(t.meta_elements, 5);
    assert_eq!(t.wire_bytes(), 0);
}

/// One event of every kind beside the line `to_json` writes for it.
fn pinned() -> Vec<(SyncEvent, &'static str)> {
    let totals = SessionTotals {
        sessions: 1,
        compare_bytes: 2,
        meta_bytes: 3,
        framing_bytes: 4,
        payload_bytes: 5,
        meta_elements: 6,
        delta: 4,
        gamma: 2,
        skips: 1,
    };
    vec![
        (
            SyncEvent::SessionOpen {
                session: 1,
                scheme: "SRV".into(),
            },
            r#"{"ev":"session_open","session":1,"scheme":"SRV"}"#,
        ),
        (
            SyncEvent::Compare {
                session: 1,
                relation: Causality::Before,
                oracle: Some(Causality::Before),
                cost_bytes: 4,
            },
            r#"{"ev":"compare","session":1,"relation":"before","oracle":"before","cost_bytes":4}"#,
        ),
        (
            SyncEvent::Compare {
                session: 2,
                relation: Causality::Concurrent,
                oracle: None,
                cost_bytes: 0,
            },
            r#"{"ev":"compare","session":2,"relation":"concurrent","oracle":null,"cost_bytes":0}"#,
        ),
        (
            SyncEvent::Element {
                session: 1,
                site: 3,
                value: 9,
                known: false,
                conflict: true,
                segment: false,
            },
            r#"{"ev":"element","session":1,"site":3,"value":9,"known":false,"conflict":true,"segment":false}"#,
        ),
        (
            SyncEvent::ConflictBit {
                session: 1,
                site: 4294967295,
            },
            r#"{"ev":"conflict_bit","session":1,"site":4294967295}"#,
        ),
        (
            SyncEvent::SegmentSkip { session: 1, seg: 2 },
            r#"{"ev":"segment_skip","session":1,"seg":2}"#,
        ),
        (
            SyncEvent::Reconcile {
                session: 1,
                decision: "merged".into(),
            },
            r#"{"ev":"reconcile","session":1,"decision":"merged"}"#,
        ),
        (
            SyncEvent::SessionClose {
                session: 1,
                outcome: "fast_forwarded".into(),
                totals,
            },
            r#"{"ev":"session_close","session":1,"outcome":"fast_forwarded","totals":{"sessions":1,"compare_bytes":2,"meta_bytes":3,"framing_bytes":4,"payload_bytes":5,"meta_elements":6,"delta":4,"gamma":2,"skips":1}}"#,
        ),
        (
            SyncEvent::GraphNode {
                session: 5,
                value: 7,
                applied: true,
            },
            r#"{"ev":"graph_node","session":5,"value":7,"applied":true}"#,
        ),
        (
            SyncEvent::FrameTx {
                contact: 8,
                stream: 0,
                client: true,
                compare: 48,
                meta: 1,
                framing: 166,
                payload: 2,
            },
            r#"{"ev":"frame_tx","contact":8,"stream":0,"client":true,"compare":48,"meta":1,"framing":166,"payload":2}"#,
        ),
        (
            SyncEvent::FrameRx {
                stream: 3,
                bytes: 18446744073709551615,
            },
            r#"{"ev":"frame_rx","stream":3,"bytes":18446744073709551615}"#,
        ),
        (
            SyncEvent::ContactBegin {
                contact: 8,
                streams: 16,
            },
            r#"{"ev":"contact_begin","contact":8,"streams":16}"#,
        ),
        (
            SyncEvent::ContactEnd {
                contact: 8,
                round_trips: 2,
                totals: SessionTotals::default(),
            },
            r#"{"ev":"contact_end","contact":8,"round_trips":2,"totals":{"sessions":0,"compare_bytes":0,"meta_bytes":0,"framing_bytes":0,"payload_bytes":0,"meta_elements":0,"delta":0,"gamma":0,"skips":0}}"#,
        ),
        (
            SyncEvent::GossipRound { round: 1 },
            r#"{"ev":"gossip_round","round":1}"#,
        ),
        (
            SyncEvent::LinkBytes {
                forward: false,
                bytes: 12,
            },
            r#"{"ev":"link_bytes","forward":false,"bytes":12}"#,
        ),
        (
            SyncEvent::LinkExcess { bytes: 9 },
            r#"{"ev":"link_excess","bytes":9}"#,
        ),
        (
            SyncEvent::SessionAborted {
                contact: 8,
                stream: 0,
                reason: "connection_lost".into(),
            },
            r#"{"ev":"session_aborted","contact":8,"stream":0,"reason":"connection_lost"}"#,
        ),
        (
            SyncEvent::Retry {
                dst: 1,
                src: 2,
                attempt: 3,
                backoff: 4,
            },
            r#"{"ev":"retry","dst":1,"src":2,"attempt":3,"backoff":4}"#,
        ),
    ]
}

#[test]
fn pinned_lines_encode_and_decode() {
    let pinned = pinned();
    let kinds: std::collections::HashSet<_> = pinned.iter().map(|(e, _)| e.kind()).collect();
    assert_eq!(kinds.len(), 17, "one line of every kind");
    for (event, line) in pinned {
        assert_eq!(event.to_json(), line);
        assert_eq!(SyncEvent::from_json(line), Ok(event));
    }
}

/// A random event of kind `kind` (0..17), labels drawn from identifier
/// characters and numbers from the whole of each field's range.
fn any_event(kind: usize, rng: &mut SplitMix64) -> SyncEvent {
    fn n(rng: &mut SplitMix64) -> u64 {
        match rng.below(4) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.below(1000) as u64,
            _ => rng.next_u64(),
        }
    }
    fn label(rng: &mut SplitMix64) -> Cow<'static, str> {
        const CHARS: &[u8] = b"abcXYZ019_";
        let len = rng.range(1..12);
        (0..len)
            .map(|_| *rng.pick(CHARS).unwrap() as char)
            .collect::<String>()
            .into()
    }
    fn relation(rng: &mut SplitMix64) -> Causality {
        let all = [
            Causality::Equal,
            Causality::Before,
            Causality::After,
            Causality::Concurrent,
        ];
        *rng.pick(&all).unwrap()
    }
    fn totals(rng: &mut SplitMix64) -> SessionTotals {
        SessionTotals {
            sessions: n(rng),
            compare_bytes: n(rng),
            meta_bytes: n(rng),
            framing_bytes: n(rng),
            payload_bytes: n(rng),
            meta_elements: n(rng),
            delta: n(rng),
            gamma: n(rng),
            skips: n(rng),
        }
    }
    let site = |rng: &mut SplitMix64| n(rng) as u32;
    match kind {
        0 => SyncEvent::SessionOpen {
            session: n(rng),
            scheme: label(rng),
        },
        1 => SyncEvent::Compare {
            session: n(rng),
            relation: relation(rng),
            oracle: rng.chance(0.5).then(|| relation(rng)),
            cost_bytes: n(rng),
        },
        2 => SyncEvent::Element {
            session: n(rng),
            site: site(rng),
            value: n(rng),
            known: rng.chance(0.5),
            conflict: rng.chance(0.5),
            segment: rng.chance(0.5),
        },
        3 => SyncEvent::ConflictBit {
            session: n(rng),
            site: site(rng),
        },
        4 => SyncEvent::SegmentSkip {
            session: n(rng),
            seg: n(rng),
        },
        5 => SyncEvent::Reconcile {
            session: n(rng),
            decision: label(rng),
        },
        6 => SyncEvent::SessionClose {
            session: n(rng),
            outcome: label(rng),
            totals: totals(rng),
        },
        7 => SyncEvent::GraphNode {
            session: n(rng),
            value: n(rng),
            applied: rng.chance(0.5),
        },
        8 => SyncEvent::FrameTx {
            contact: n(rng),
            stream: n(rng),
            client: rng.chance(0.5),
            compare: n(rng),
            meta: n(rng),
            framing: n(rng),
            payload: n(rng),
        },
        9 => SyncEvent::FrameRx {
            stream: n(rng),
            bytes: n(rng),
        },
        10 => SyncEvent::ContactBegin {
            contact: n(rng),
            streams: n(rng),
        },
        11 => SyncEvent::ContactEnd {
            contact: n(rng),
            round_trips: n(rng),
            totals: totals(rng),
        },
        12 => SyncEvent::GossipRound { round: n(rng) },
        13 => SyncEvent::LinkBytes {
            forward: rng.chance(0.5),
            bytes: n(rng),
        },
        14 => SyncEvent::LinkExcess { bytes: n(rng) },
        15 => SyncEvent::SessionAborted {
            contact: n(rng),
            stream: n(rng),
            reason: label(rng),
        },
        _ => SyncEvent::Retry {
            dst: site(rng),
            src: site(rng),
            attempt: n(rng),
            backoff: n(rng),
        },
    }
}

#[test]
fn from_json_inverts_to_json_for_every_kind() {
    cases(64, |_, rng| {
        for kind in 0..17 {
            let event = any_event(kind, rng);
            assert_eq!(SyncEvent::from_json(&event.to_json()), Ok(event));
        }
    });
}

#[test]
fn from_json_rejects_junk() {
    let junk = [
        "",
        "{}",
        "[]",
        "null",
        r#"{"ev":"gossip_round","round":1,}"#,
        r#"{"round":1,"ev":"gossip_round"}"#,
        r#"{"ev":"gossip_round","round":1,"extra":2}"#,
        r#"{"ev":"gossip_round","round":18446744073709551616}"#,
        r#"{"ev":"gossip_round","round":01}"#,
        r#"{"ev":"gossip_round","round":-1}"#,
        r#"{"ev":"gossip_round","round":1.0}"#,
        r#"{"ev":"gossip_round", "round":1}"#,
        r#"{"ev":"gossip_round","round":1} "#,
        r#"{"ev":"gossip_round","round":1}{}"#,
        r#"{"ev":"conflict_bit","session":1,"site":4294967296}"#,
        r#"{"ev":"session_open","session":1,"scheme":""}"#,
        r#"{"ev":"session_open","session":1,"scheme":"S\"RV"}"#,
        r#"{"ev":"session_open","session":1,"scheme":"SR V"}"#,
        r#"{"ev":"compare","session":1,"relation":"before","oracle":"Before","cost_bytes":4}"#,
        r#"{"ev":"link_bytes","forward":True,"bytes":12}"#,
        r#"{"ev":"flight","contact":3,"elapsed_us":9,"reason":"slow","dropped":0,"events":2}"#,
    ];
    for line in junk {
        assert!(SyncEvent::from_json(line).is_err(), "{line}");
    }
}

mod enabled_dispatch {
    use super::super::*;
    use crate::causality::Causality;
    use std::sync::Arc;

    #[test]
    fn with_installs_and_removes_sink() {
        assert!(!enabled());
        let ring = Arc::new(RingSink::new(16));
        with(ring.clone(), || {
            assert!(enabled());
            crate::obs_emit!(SyncEvent::GossipRound { round: 1 });
        });
        assert!(!enabled());
        assert_eq!(ring.events().len(), 1);
    }

    #[test]
    fn session_scopes_nest_without_double_counting() {
        let ring = Arc::new(RingSink::new(64));
        with(ring.clone(), || {
            let outer = session_scope("SRV");
            let outer_id = outer.id();
            assert_ne!(outer_id, 0);
            let inner = session_scope("SRV");
            assert_eq!(inner.id(), outer_id, "nested scope joins the session");
            inner.close("ignored", SessionTotals::default());
            outer.close("done", SessionTotals::default());
            // A fresh scope gets a fresh id.
            let next = session_scope("BRV");
            assert_ne!(next.id(), outer_id);
            next.close("done", SessionTotals::default());
        });
        let opens = ring
            .events()
            .iter()
            .filter(|e| matches!(e, SyncEvent::SessionOpen { .. }))
            .count();
        let closes = ring
            .events()
            .iter()
            .filter(|e| matches!(e, SyncEvent::SessionClose { .. }))
            .count();
        assert_eq!(opens, 2);
        assert_eq!(closes, 2);
    }

    #[test]
    fn ring_sink_is_bounded() {
        let ring = RingSink::new(3);
        for round in 0..10 {
            ring.record(&SyncEvent::GossipRound { round });
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], SyncEvent::GossipRound { round: 7 });
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        use std::sync::Mutex;
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonlSink::new(Box::new(Shared(buf.clone())));
        sink.record(&SyncEvent::GossipRound { round: 1 });
        sink.record(&SyncEvent::LinkExcess { bytes: 9 });
        sink.flush().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn check_sink_accepts_consistent_session() {
        let check = Arc::new(CheckSink::new());
        with(check.clone(), || {
            assert!(wants_oracle());
            let scope = session_scope("SRV");
            let id = scope.id();
            emit(&SyncEvent::Element {
                session: id,
                site: 0,
                value: 2,
                known: false,
                conflict: false,
                segment: false,
            });
            emit(&SyncEvent::Element {
                session: id,
                site: 1,
                value: 1,
                known: true,
                conflict: false,
                segment: false,
            });
            scope.close(
                "fast_forwarded",
                SessionTotals {
                    sessions: 1,
                    meta_elements: 2,
                    delta: 1,
                    gamma: 1,
                    ..SessionTotals::default()
                },
            );
        });
        check.finish().unwrap();
        assert_eq!(check.checked_sessions(), 1);
    }

    #[test]
    #[should_panic(expected = "disagree with reported totals")]
    fn check_sink_rejects_miscounted_session() {
        let check = Arc::new(CheckSink::new());
        with(check, || {
            let scope = session_scope("SRV");
            emit(&SyncEvent::Element {
                session: scope.id(),
                site: 0,
                value: 2,
                known: false,
                conflict: false,
                segment: false,
            });
            scope.close(
                "fast_forwarded",
                SessionTotals {
                    sessions: 1,
                    meta_elements: 2,
                    delta: 2,
                    ..SessionTotals::default()
                },
            );
        });
    }

    #[test]
    #[should_panic(expected = "COMPARE verdict")]
    fn check_sink_rejects_oracle_disagreement() {
        let check = Arc::new(CheckSink::new());
        with(check, || {
            emit(&SyncEvent::Compare {
                session: 1,
                relation: Causality::Before,
                oracle: Some(Causality::Concurrent),
                cost_bytes: 0,
            });
        });
    }

    #[test]
    fn contact_abort_skips_conservation_check() {
        let check = Arc::new(CheckSink::new());
        let ring = Arc::new(RingSink::new(16));
        with(check.clone(), || {
            with(ring.clone(), || {
                let scope = contact_scope(2);
                let id = scope.id();
                // Frame attribution that would fail conservation if
                // the contact were closed with empty totals.
                emit(&SyncEvent::FrameTx {
                    contact: id,
                    stream: 1,
                    client: true,
                    compare: 3,
                    meta: 1,
                    framing: 2,
                    payload: 0,
                });
                scope.abort("connection_lost");
                assert_eq!(current_contact(), 0, "abort clears the scope");
            });
        });
        assert_eq!(check.checked_contacts(), 0);
        check.finish().unwrap();
        assert_eq!(check.aborted(), 1);
        let aborts: Vec<_> = ring
            .events()
            .into_iter()
            .filter(|e| matches!(e, SyncEvent::SessionAborted { .. }))
            .collect();
        assert_eq!(aborts.len(), 1);
        let SyncEvent::SessionAborted {
            contact,
            stream,
            reason,
        } = &aborts[0]
        else {
            unreachable!()
        };
        assert_ne!(*contact, 0);
        assert_eq!(*stream, 0);
        assert_eq!(*reason, "connection_lost");
    }

    #[test]
    fn sinks_recover_from_poisoned_locks() {
        // CheckSink: an oracle disagreement panics in `record` on
        // another thread.
        let check = Arc::new(CheckSink::new());
        {
            let check = check.clone();
            let _ = std::thread::spawn(move || {
                check.record(&SyncEvent::Compare {
                    session: 1,
                    relation: Causality::Before,
                    oracle: Some(Causality::Concurrent),
                    cost_bytes: 0,
                });
            })
            .join();
        }
        // Reads and further records still work.
        assert_eq!(check.checked_compares(), 0);
        check.record(&SyncEvent::Compare {
            session: 2,
            relation: Causality::Before,
            oracle: Some(Causality::Before),
            cost_bytes: 0,
        });
        assert_eq!(check.checked_compares(), 1);

        // JsonlSink: poison its writer lock with a writer that
        // panics exactly once.
        struct Fused(bool);
        impl std::io::Write for Fused {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 {
                    self.0 = false;
                    panic!("writer blew up");
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let jsonl = Arc::new(JsonlSink::new(Box::new(Fused(true))));
        {
            let jsonl = jsonl.clone();
            let _ = std::thread::spawn(move || {
                jsonl.record(&SyncEvent::GossipRound { round: 1 });
            })
            .join();
        }
        // Poisoned, but flush and record still go through.
        jsonl.flush().unwrap();
        jsonl.record(&SyncEvent::GossipRound { round: 2 });
    }

    #[test]
    fn check_sink_verifies_contact_byte_conservation() {
        let check = Arc::new(CheckSink::new());
        with(check.clone(), || {
            let scope = contact_scope(2);
            emit(&SyncEvent::FrameTx {
                contact: scope.id(),
                stream: 1,
                client: true,
                compare: 3,
                meta: 0,
                framing: 2,
                payload: 0,
            });
            emit(&SyncEvent::FrameTx {
                contact: scope.id(),
                stream: 1,
                client: false,
                compare: 0,
                meta: 4,
                framing: 2,
                payload: 8,
            });
            scope.close(
                1,
                SessionTotals {
                    compare_bytes: 3,
                    meta_bytes: 4,
                    framing_bytes: 4,
                    payload_bytes: 8,
                    ..SessionTotals::default()
                },
            );
        });
        check.finish().unwrap();
        assert_eq!(check.checked_contacts(), 1);
    }
}
