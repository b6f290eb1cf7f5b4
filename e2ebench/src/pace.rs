//! Open-loop pacing: events due on a fixed schedule, whatever the
//! system does. A request is timed from when it was due, so a stall
//! also charges the wait it imposes on every request queued behind
//! it, and each event records how late the generator started it.

use crate::trace::{ms, now_ns};

/// Event `k` of a schedule is due at `first + k × step`.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    next_ns: u64,
    step_ns: u64,
}

impl Pacer {
    /// A schedule starting at `first_ns`, one event per `step_ns`.
    pub fn new(first_ns: u64, step_ns: u64) -> Self {
        Pacer {
            next_ns: first_ns,
            step_ns,
        }
    }

    /// When the next event is due, ns since the epoch.
    pub fn due(&self) -> u64 {
        self.next_ns
    }

    /// Starts the due event now: returns its due time and how late it
    /// started (ms), and schedules the next one.
    pub fn start(&mut self) -> (u64, f64) {
        let due = self.next_ns;
        self.next_ns += self.step_ns;
        (due, ms(due, now_ns()))
    }
}

/// Sleeps until `due_ns` (returns at once if it has passed).
pub fn sleep_until(due_ns: u64) {
    let now = now_ns();
    if due_ns > now {
        std::thread::sleep(std::time::Duration::from_nanos(due_ns - now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_and_lateness_is_recorded() {
        let step = 2_000_000;
        let first = now_ns() + step;
        let mut pacer = Pacer::new(first, step);
        let mut late = Vec::new();
        let mut latency = Vec::new();
        for k in 0..5 {
            sleep_until(pacer.due());
            let (due, l) = pacer.start();
            late.push(l);
            // Event 1 stalls the generator for 10 ms.
            if k == 1 {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            latency.push(ms(due, now_ns()));
        }
        // On schedule before the stall.
        assert!(late[0] < 2.0 && late[1] < 2.0, "{late:?}");
        // The stall makes the next events late, and their latency
        // (from due) includes the time they waited behind it.
        assert!(late[2] >= 7.0, "{late:?}");
        assert!(latency[2] >= 7.0, "{latency:?}");
        assert!(latency[1] >= 10.0);
        // Due times stay on the fixed grid, however late the events ran.
        assert_eq!(pacer.due(), first + 5 * step);
    }
}
