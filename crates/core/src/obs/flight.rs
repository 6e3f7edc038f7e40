//! Slow-contact flight recorder: bounded per-contact rings of recent
//! [`SyncEvent`]s, dumped as JSONL only when a contact turns out to be
//! worth keeping — it ran past a latency threshold, or it aborted.
//!
//! A [`JsonlSink`](super::JsonlSink) writes *everything*, which is the
//! right tool offline and the wrong one on a daemon that performs
//! millions of healthy contacts: the interesting trace is the one you
//! no longer have by the time a contact misbehaves. The
//! [`FlightRecorder`] inverts the cost: every event of an in-flight
//! contact lands in a small in-memory ring (no I/O, no allocation past
//! the ring capacity), and the ring only ever reaches the writer when
//! the contact closes slow or aborts. Healthy contacts cost a ring
//! insert and one `HashMap` removal.
//!
//! Each dump is self-describing: a `"ev":"flight"` header line with the
//! contact id, elapsed microseconds, trigger reason and drop count,
//! followed by the ring's events in order, one
//! [`SyncEvent::to_json`] line each. Every event line decodes with
//! [`SyncEvent::from_json`]; the header is no event and does not, so a
//! dump is not a trace `tables --check-jsonl` accepts whole.

use super::{lock_recovering, Sink, SyncEvent};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Contacts tracked concurrently; beyond this the oldest ring is shed.
const MAX_CONTACTS: usize = 64;

/// Events retained per contact ring.
const RING_CAP: usize = 256;

/// One in-flight contact's bounded event ring.
struct Flight {
    started: Instant,
    ring: VecDeque<SyncEvent>,
    dropped: u64,
}

impl Flight {
    fn push(&mut self, event: &SyncEvent) {
        if self.ring.len() == RING_CAP {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event.clone());
    }
}

/// A [`Sink`] that keeps a bounded ring of recent events per open
/// contact and dumps a ring to the writer as JSONL when its contact
/// exceeds `slow` wall-clock or aborts.
pub struct FlightRecorder {
    slow: Duration,
    flights: Mutex<HashMap<u64, Flight>>,
    out: Mutex<Box<dyn std::io::Write + Send>>,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// Wraps any writer; contacts slower than `slow` are dumped.
    pub fn new(out: Box<dyn std::io::Write + Send>, slow: Duration) -> FlightRecorder {
        FlightRecorder {
            slow,
            flights: Mutex::new(HashMap::new()),
            out: Mutex::new(out),
            dumps: AtomicU64::new(0),
        }
    }

    /// Creates (truncating) `path` and records flights to it buffered.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &str, slow: Duration) -> std::io::Result<FlightRecorder> {
        let file = std::fs::File::create(path)?;
        Ok(FlightRecorder::new(
            Box::new(std::io::BufWriter::new(file)),
            slow,
        ))
    }

    /// Rings dumped so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn flush(&self) -> std::io::Result<()> {
        lock_recovering(&self.out).flush()
    }

    fn dump(&self, contact: u64, flight: Flight, reason: &str) {
        self.dumps.fetch_add(1, Ordering::Relaxed);
        let mut out = lock_recovering(&self.out);
        // A full disk is not worth a panic inside a protocol run.
        let _ = writeln!(
            out,
            "{{\"ev\":\"flight\",\"contact\":{contact},\"elapsed_us\":{},\
             \"reason\":\"{reason}\",\"dropped\":{},\"events\":{}}}",
            flight.started.elapsed().as_micros(),
            flight.dropped,
            flight.ring.len(),
        );
        for event in &flight.ring {
            let _ = writeln!(out, "{}", event.to_json());
        }
        let _ = out.flush();
    }
}

impl Sink for FlightRecorder {
    fn record(&self, event: &SyncEvent) {
        // Attribute the event to a contact: by its own contact field
        // when it carries one, else by the thread's open contact scope.
        let contact = match event {
            SyncEvent::ContactBegin { contact, .. }
            | SyncEvent::ContactEnd { contact, .. }
            | SyncEvent::FrameTx { contact, .. }
            | SyncEvent::SessionAborted { contact, .. } => *contact,
            _ => super::current_contact(),
        };
        if contact == 0 {
            return;
        }
        let mut flights = lock_recovering(&self.flights);
        match event {
            SyncEvent::ContactBegin { .. } => {
                if flights.len() >= MAX_CONTACTS {
                    // Contact ids are globally monotonic: the minimum
                    // key is the longest-open (likely leaked) flight.
                    if let Some(oldest) = flights.keys().min().copied() {
                        flights.remove(&oldest);
                    }
                }
                let mut flight = Flight {
                    started: Instant::now(),
                    ring: VecDeque::new(),
                    dropped: 0,
                };
                flight.push(event);
                flights.insert(contact, flight);
            }
            SyncEvent::ContactEnd { .. } => {
                if let Some(mut flight) = flights.remove(&contact) {
                    flight.push(event);
                    let slow = flight.started.elapsed() >= self.slow;
                    drop(flights);
                    if slow {
                        self.dump(contact, flight, "slow");
                    }
                }
            }
            SyncEvent::SessionAborted { stream, .. } if *stream == 0 => {
                if let Some(mut flight) = flights.remove(&contact) {
                    flight.push(event);
                    drop(flights);
                    self.dump(contact, flight, "aborted");
                }
            }
            _ => {
                if let Some(flight) = flights.get_mut(&contact) {
                    flight.push(event);
                }
            }
        }
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        let _ = lock_recovering(&self.out).flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{self, SessionTotals};
    use std::sync::Arc;

    /// A shared growable buffer standing in for a file.
    #[derive(Clone, Default)]
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

    fn contact_events(contact: u64) -> [SyncEvent; 3] {
        [
            SyncEvent::ContactBegin {
                contact,
                streams: 1,
            },
            SyncEvent::FrameTx {
                contact,
                stream: 1,
                client: true,
                compare: 4,
                meta: 2,
                framing: 1,
                payload: 8,
            },
            SyncEvent::ContactEnd {
                contact,
                round_trips: 1,
                totals: SessionTotals::default(),
            },
        ]
    }

    #[test]
    fn fast_contacts_stay_silent() {
        let buf = Shared::default();
        let recorder = FlightRecorder::new(Box::new(buf.clone()), Duration::from_secs(3600));
        for event in &contact_events(7) {
            recorder.record(event);
        }
        assert_eq!(recorder.dumps(), 0);
        assert!(buf.0.lock().unwrap().is_empty());
    }

    #[test]
    fn slow_contact_dumps_its_ring_as_jsonl() {
        let buf = Shared::default();
        let recorder = FlightRecorder::new(Box::new(buf.clone()), Duration::ZERO);
        for event in &contact_events(9) {
            recorder.record(event);
        }
        assert_eq!(recorder.dumps(), 1);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 ring events: {text}");
        assert!(lines[0].contains("\"ev\":\"flight\""));
        assert!(lines[0].contains("\"contact\":9"));
        assert!(lines[0].contains("\"reason\":\"slow\""));
        assert!(lines[0].contains("\"events\":3"));
        assert!(lines[1].contains("contact_begin"));
        assert!(lines[3].contains("contact_end"));
        // Every event line decodes; the header is no event.
        assert!(SyncEvent::from_json(lines[0]).is_err());
        let events = contact_events(9);
        for (line, event) in lines[1..].iter().zip(&events) {
            assert_eq!(SyncEvent::from_json(line).as_ref(), Ok(event));
        }
    }

    #[test]
    fn aborted_contact_dumps_even_when_fast() {
        let buf = Shared::default();
        let recorder = FlightRecorder::new(Box::new(buf.clone()), Duration::from_secs(3600));
        recorder.record(&SyncEvent::ContactBegin {
            contact: 3,
            streams: 1,
        });
        recorder.record(&SyncEvent::SessionAborted {
            contact: 3,
            stream: 0,
            reason: "connection_lost".into(),
        });
        assert_eq!(recorder.dumps(), 1);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"reason\":\"aborted\""), "{text}");
        assert!(text.contains("session_aborted"), "{text}");
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let buf = Shared::default();
        let recorder = FlightRecorder::new(Box::new(buf.clone()), Duration::ZERO);
        recorder.record(&SyncEvent::ContactBegin {
            contact: 5,
            streams: 1,
        });
        for _ in 0..(2 * RING_CAP) {
            recorder.record(&SyncEvent::FrameTx {
                contact: 5,
                stream: 1,
                client: true,
                compare: 0,
                meta: 0,
                framing: 1,
                payload: 0,
            });
        }
        recorder.record(&SyncEvent::ContactEnd {
            contact: 5,
            round_trips: 1,
            totals: SessionTotals::default(),
        });
        assert_eq!(recorder.dumps(), 1);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let header = text.lines().next().unwrap();
        assert!(
            header.contains(&format!("\"events\":{RING_CAP}")),
            "{header}"
        );
        // begin + 2*CAP frames + end, CAP retained.
        assert!(
            header.contains(&format!("\"dropped\":{}", RING_CAP + 2)),
            "{header}"
        );
        assert_eq!(text.lines().count(), RING_CAP + 1);
    }

    #[test]
    fn session_events_attribute_via_open_contact_scope() {
        let recorder = Arc::new(FlightRecorder::new(
            Box::new(std::io::sink()),
            Duration::ZERO,
        ));
        let sink: Arc<dyn Sink> = recorder.clone();
        obs::with(sink, || {
            let scope = obs::contact_scope(2);
            // No contact field on this event: the scope attributes it.
            obs::emit(&SyncEvent::GossipRound { round: 1 });
            scope.close(1, SessionTotals::default());
        });
        assert_eq!(recorder.dumps(), 1);
    }
}
