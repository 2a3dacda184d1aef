//! Open-loop request schedules and the accounting of their timelines.
//!
//! An open-loop sender sends each request at its due time whether or not
//! earlier ones were answered, so a stall in the server delays every
//! request queued behind it. Latency is therefore timed from the due
//! time, and the sender's own lateness is reported so a slow client
//! cannot pass for a fast server.

/// What a scheduled slot carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    Read,
    Apply,
}

/// Due times (seconds from session start) for reads at `read_rate` per
/// second and applies every `apply_every` seconds from `first_apply`, over
/// `[0, seconds)`, merged in due order (an apply goes first on a tie).
pub fn schedule(
    seconds: f64,
    read_rate: f64,
    first_apply: f64,
    apply_every: f64,
) -> Vec<(f64, Slot)> {
    let mut slots: Vec<(f64, Slot)> = Vec::new();
    let mut k = 0u32;
    while first_apply + f64::from(k) * apply_every < seconds {
        slots.push((first_apply + f64::from(k) * apply_every, Slot::Apply));
        k += 1;
    }
    let mut i = 0u32;
    while f64::from(i) / read_rate < seconds {
        slots.push((f64::from(i) / read_rate, Slot::Read));
        i += 1;
    }
    slots.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| (a.1 == Slot::Read).cmp(&(b.1 == Slot::Read)))
    });
    slots
}

/// One request's client-side timeline, in seconds from session start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeline {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
}

impl Timeline {
    /// Latency as the user sees it: from when the request was due.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the sender put the request on the wire.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// The intervals in which the server was busy with each apply, as seen
/// from the one connection: responses come back in request order, so an
/// apply's service starts once it was sent and the response before it
/// arrived, and ends when its own response arrives.
pub fn apply_intervals(timelines: &[Timeline], slots: &[Slot]) -> Vec<(f64, f64)> {
    let mut prev_done = 0.0f64;
    let mut out = Vec::new();
    for (t, slot) in timelines.iter().zip(slots) {
        if *slot == Slot::Apply {
            out.push((t.sent.max(prev_done), t.done));
        }
        prev_done = t.done;
    }
    out
}

/// Reads due inside some apply's service interval: they queue behind it
/// on the single connection (head-of-line blocking).
pub fn hol_blocked(timelines: &[Timeline], slots: &[Slot]) -> usize {
    let intervals = apply_intervals(timelines, slots);
    timelines
        .iter()
        .zip(slots)
        .filter(|(t, slot)| {
            **slot == Slot::Read && intervals.iter().any(|&(s, e)| t.due >= s && t.due < e)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_merges_reads_and_applies_in_due_order() {
        let s = schedule(1.0, 4.0, 0.5, 0.4);
        let due: Vec<f64> = s.iter().map(|x| x.0).collect();
        assert_eq!(due, vec![0.0, 0.25, 0.5, 0.5, 0.75, 0.9]);
        assert_eq!(s[2].1, Slot::Apply, "apply first on a tie");
        assert_eq!(s.iter().filter(|x| x.1 == Slot::Apply).count(), 2);
    }

    #[test]
    fn latency_counts_from_due_and_lateness_never_negative() {
        let early = Timeline {
            due: 1.0,
            sent: 0.999,
            done: 1.25,
        };
        assert_eq!(early.latency(), 0.25);
        assert_eq!(early.lateness(), 0.0);
        // A sender stalled by 0.5 s: the stall is the server's latency
        // only from the due time on, and shows as lateness.
        let late = Timeline {
            due: 1.0,
            sent: 1.5,
            done: 1.75,
        };
        assert_eq!(late.latency(), 0.75);
        assert_eq!(late.lateness(), 0.5);
    }

    #[test]
    fn reads_due_during_an_apply_are_head_of_line_blocked() {
        let slots = [Slot::Read, Slot::Apply, Slot::Read, Slot::Read, Slot::Read];
        let t = |due: f64, sent: f64, done: f64| Timeline { due, sent, done };
        let timelines = [
            t(0.0, 0.0, 0.1),
            // Sent at 1.0, answered at 2.0: busy over [1.0, 2.0).
            t(1.0, 1.0, 2.0),
            t(1.2, 1.2, 2.01),
            t(1.9, 1.9, 2.02),
            t(2.5, 2.5, 2.51),
        ];
        assert_eq!(apply_intervals(&timelines, &slots), vec![(1.0, 2.0)]);
        assert_eq!(hol_blocked(&timelines, &slots), 2);
    }

    #[test]
    fn apply_service_starts_after_the_previous_response() {
        let slots = [Slot::Read, Slot::Apply];
        let t = |due: f64, sent: f64, done: f64| Timeline { due, sent, done };
        // The read ahead of the apply finished at 0.3, after the apply
        // was already sent at 0.2.
        let timelines = [t(0.0, 0.0, 0.3), t(0.2, 0.2, 1.0)];
        assert_eq!(apply_intervals(&timelines, &slots), vec![(0.3, 1.0)]);
    }
}
