//! A minimal futures-free completion primitive.
//!
//! An async submission front-end hands the client a [`Ticket`] when a
//! request is enqueued and keeps the matching [`Completion`]; whichever
//! executor thread eventually services the request calls
//! [`Completion::complete`]. There is no runtime and no `Future`: the
//! result is *pushed* to whoever holds the ticket by
//! [`std::thread::Thread::unpark`], in one of two ways that share one
//! slot (the ticket's *waiter*):
//!
//! * **[`Ticket::wait`]** — one thread, one ticket: the caller names
//!   itself the waiter and parks until the result is there, then takes
//!   it.
//! * **[`Ticket::register`]** — one thread, many tickets: a multiplexer
//!   (a connection's writer) names the thread to unpark and keeps the
//!   ticket; when the unpark arrives it [`Ticket::poll`]s what it holds.
//!   `register` reports whether the request had *already* finished, in
//!   which case no unpark will ever come for it and the caller must act
//!   on the result itself — checked under the same lock the producer
//!   publishes under, so a completion racing the registration is seen
//!   by exactly one side and never lost. An unpark only says "look";
//!   it carries no ticket identity and may be spurious (the park token
//!   is per thread, not per ticket), so the woken thread re-polls.
//!
//! Either way the producer wakes at most the one registered thread, the
//! slot is cleared by the wake (a later `register` or `wait` simply
//! names a new waiter), and abandoning a request (dropping its
//! `Completion`) wakes exactly like completing it. Nobody sleeps on a
//! timer.
//!
//! # Deferred wakes
//!
//! An unpark is a system call, and a producer that finishes many
//! requests in one pass usually finishes several for the same waiter.
//! [`Completion::complete_deferred`] publishes the result exactly as
//! [`Completion::complete`] does — a `poll`, an `is_done` or a
//! `register` that runs afterwards sees it — but *returns* the waiter
//! instead of unparking it; the producer collects those in a
//! [`WakeList`], which keeps one entry per thread, and unparks each once
//! with [`WakeList::fire`] when its pass ends. Nothing can be lost by the
//! delay: the state changed before the waiter was handed over, whoever
//! looks in the meantime finds the result, and the list fires when it is
//! dropped, so a producer that unwinds mid-pass still wakes everyone it
//! owes.
//!
//! # Example
//!
//! ```
//! use prism_types::completion_pair;
//!
//! let (completion, mut ticket) = completion_pair::<u32>();
//! assert!(ticket.poll().is_none());
//! std::thread::spawn(move || completion.complete(7));
//! assert_eq!(ticket.wait(), 7);
//! ```
//!
//! Multiplexing with a registration instead of a blocking wait:
//!
//! ```
//! use prism_types::completion_pair;
//!
//! let (completion, mut ticket) = completion_pair::<u32>();
//! let already_done = ticket.register(std::thread::current());
//! assert!(!already_done);
//! std::thread::spawn(move || completion.complete(7));
//! let value = loop {
//!     match ticket.poll() {
//!         Some(value) => break value,
//!         None => std::thread::park(), // woken by `complete`
//!     }
//! };
//! assert_eq!(value, 7);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;

/// A shared gauge of outstanding (created but not yet completed or
/// abandoned) completions, for asserting that a producer never strands a
/// request. Pass it to [`completion_pair_gauged`]; the count rises when a
/// pair is created and falls when its [`Completion`] completes *or* is
/// dropped uncompleted, so after a producer has fully drained — even via
/// error paths — the gauge must read zero.
///
/// Cloning shares the underlying counter.
///
/// # Example
///
/// ```
/// use prism_types::{completion_pair_gauged, TicketGauge};
///
/// let gauge = TicketGauge::new();
/// let (completion, ticket) = completion_pair_gauged::<u8>(&gauge);
/// assert_eq!(gauge.outstanding(), 1);
/// completion.complete(3);
/// assert_eq!(gauge.outstanding(), 0);
/// assert_eq!(ticket.wait(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TicketGauge {
    outstanding: Arc<AtomicU64>,
    high_water: Arc<AtomicU64>,
}

impl TicketGauge {
    /// A fresh gauge reading zero.
    pub fn new() -> Self {
        TicketGauge::default()
    }

    /// Number of gauged completions created but not yet completed or
    /// abandoned.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Highest outstanding count ever observed (a cumulative high-water
    /// mark): the peak number of requests simultaneously in flight, even
    /// after a drain has returned [`TicketGauge::outstanding`] to zero.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Acquire)
    }

    fn incr(&self) {
        let now = self.outstanding.fetch_add(1, Ordering::AcqRel) + 1;
        self.high_water.fetch_max(now, Ordering::AcqRel);
    }

    fn decr(&self) {
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
}

struct State<T> {
    value: Option<T>,
    /// The producer side was dropped without completing; waiting any
    /// longer would hang forever.
    abandoned: bool,
    /// The thread to unpark when the request finishes: the one parked in
    /// [`Ticket::wait`] or the one named by [`Ticket::register`].
    waiter: Option<Thread>,
}

struct Inner<T> {
    state: Mutex<State<T>>,
}

impl<T> Inner<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

/// The producer half: completes the request exactly once.
///
/// Dropping a `Completion` without calling [`Completion::complete`] marks
/// the request abandoned, so a parked [`Ticket::wait`] panics instead of
/// hanging forever (an executor that panics mid-request must not strand
/// its clients silently).
pub struct Completion<T> {
    inner: Arc<Inner<T>>,
    completed: bool,
    gauge: Option<TicketGauge>,
}

/// The consumer half: observe the result by polling or by blocking.
pub struct Ticket<T> {
    inner: Arc<Inner<T>>,
}

/// Create a connected [`Completion`] / [`Ticket`] pair.
pub fn completion_pair<T>() -> (Completion<T>, Ticket<T>) {
    pair_with_gauge(None)
}

/// [`completion_pair`] counted on `gauge`: the gauge rises now and falls
/// when the [`Completion`] completes or is dropped uncompleted, so a
/// producer (a submission front-end, a network server) can prove it never
/// stranded a request by asserting the gauge reads zero after a drain.
pub fn completion_pair_gauged<T>(gauge: &TicketGauge) -> (Completion<T>, Ticket<T>) {
    pair_with_gauge(Some(gauge.clone()))
}

fn pair_with_gauge<T>(gauge: Option<TicketGauge>) -> (Completion<T>, Ticket<T>) {
    if let Some(gauge) = &gauge {
        gauge.incr();
    }
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            value: None,
            abandoned: false,
            waiter: None,
        }),
    });
    (
        Completion {
            inner: Arc::clone(&inner),
            completed: false,
            gauge,
        },
        Ticket { inner },
    )
}

impl<T> Completion<T> {
    /// Deliver the result and unpark the ticket's waiter, if one is
    /// named (see [`Ticket::wait`] and [`Ticket::register`]).
    pub fn complete(self, value: T) {
        if let Some(thread) = self.complete_deferred(value) {
            thread.unpark();
        }
    }

    /// Deliver the result like [`Completion::complete`], but hand the
    /// ticket's waiter (if one is named) back instead of unparking it.
    /// The caller owes that thread an unpark — normally by pushing it
    /// onto a [`WakeList`] — and may batch it with others; the result is
    /// visible to `poll` / `is_done` / `register` from this call on.
    #[must_use = "the returned waiter is parked until somebody unparks it"]
    pub fn complete_deferred(mut self, value: T) -> Option<Thread> {
        self.completed = true;
        // Decrement before publishing the value: anything downstream of
        // the result (a polled ticket, a wire response built from it)
        // must observe the gauge already dropped, so a drain check can
        // read zero the instant the last response is visible.
        if let Some(gauge) = self.gauge.take() {
            gauge.decr();
        }
        let mut state = self.inner.lock();
        state.value = Some(value);
        state.waiter.take()
    }
}

/// Threads owed an unpark, one entry per thread however many of its
/// tickets completed: what a producer collects from
/// [`Completion::complete_deferred`] over one pass and [fires](Self::fire)
/// at the end of it. Dropping the list fires it, so an early return or a
/// panic between two completions cannot strand a waiter.
#[derive(Debug, Default)]
pub struct WakeList {
    threads: Vec<Thread>,
}

impl WakeList {
    /// Owe `waiter` an unpark (once, however often it is pushed before
    /// the next [`WakeList::fire`]). Takes what
    /// [`Completion::complete_deferred`] returns as it is.
    pub fn push(&mut self, waiter: Option<Thread>) {
        let Some(thread) = waiter else { return };
        if !self.threads.iter().any(|held| held.id() == thread.id()) {
            self.threads.push(thread);
        }
    }

    /// Unpark every collected thread and empty the list.
    pub fn fire(&mut self) {
        for thread in self.threads.drain(..) {
            thread.unpark();
        }
    }
}

impl Drop for WakeList {
    fn drop(&mut self) {
        self.fire();
    }
}

impl<T> Drop for Completion<T> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        // An abandoned request is no longer outstanding either — the
        // gauge tracks "could still complete", not "completed cleanly".
        // As in `complete`, decrement before publishing the abandonment.
        if let Some(gauge) = self.gauge.take() {
            gauge.decr();
        }
        let waiter = {
            let mut state = self.inner.lock();
            state.abandoned = true;
            state.waiter.take()
        };
        if let Some(thread) = waiter {
            thread.unpark();
        }
    }
}

impl<T> Ticket<T> {
    /// True once a result is available (and not yet taken by
    /// [`Ticket::poll`]).
    pub fn is_done(&self) -> bool {
        self.inner.lock().value.is_some()
    }

    /// Take the result if it is available; `None` if the request is still
    /// in flight. Never blocks, so one OS thread can poll hundreds of
    /// outstanding tickets.
    ///
    /// # Panics
    ///
    /// Panics if the producer dropped its [`Completion`] without
    /// completing: to a polling multiplexer an abandoned request would
    /// otherwise look in-flight forever, turning the producer's crash
    /// into a silent hang of the consumer loop.
    pub fn poll(&mut self) -> Option<T> {
        let mut state = self.inner.lock();
        let value = state.value.take();
        assert!(
            value.is_some() || !state.abandoned,
            "completion abandoned: the executor dropped the request \
             without completing it"
        );
        value
    }

    /// Name `thread` as the one to unpark when the request completes or
    /// is abandoned, replacing any earlier registration. Returns `true`
    /// if the request has *already* finished: nothing is registered then
    /// and no unpark will come, so the caller must [`Ticket::poll`] (or
    /// have `thread` do so) itself.
    ///
    /// Meant for a thread multiplexing many tickets: it parks with no
    /// timeout and re-polls its tickets on every wake. An unpark may be
    /// spurious, and an abandoned request surfaces as the panic of the
    /// `poll` that follows the wake.
    pub fn register(&self, thread: Thread) -> bool {
        let mut state = self.inner.lock();
        let done = state.value.is_some() || state.abandoned;
        if !done {
            state.waiter = Some(thread);
        }
        done
    }

    /// Block (park) until the result is available and return it.
    ///
    /// # Panics
    ///
    /// Panics if the producer dropped its [`Completion`] without
    /// completing — waiting would otherwise hang forever.
    pub fn wait(self) -> T {
        loop {
            {
                let mut state = self.inner.lock();
                if let Some(value) = state.value.take() {
                    return value;
                }
                assert!(
                    !state.abandoned,
                    "completion abandoned: the executor dropped the request \
                     without completing it"
                );
                state.waiter = Some(std::thread::current());
            }
            // A stale unpark from an earlier ticket on this thread can wake
            // us spuriously; the loop re-checks the state either way.
            std::thread::park();
        }
    }
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("done", &self.is_done())
            .finish()
    }
}

impl<T> std::fmt::Debug for Completion<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completion")
            .field("completed", &self.completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_before_wait_returns_immediately() {
        let (completion, ticket) = completion_pair();
        completion.complete(41);
        assert!(ticket.is_done());
        assert_eq!(ticket.wait(), 41);
    }

    #[test]
    fn poll_is_non_blocking_and_takes_the_value_once() {
        let (completion, mut ticket) = completion_pair();
        assert!(ticket.poll().is_none());
        assert!(!ticket.is_done());
        completion.complete("done");
        assert_eq!(ticket.poll(), Some("done"));
        // The value is consumed; the ticket reports not-done afterwards.
        assert!(ticket.poll().is_none());
        assert!(!ticket.is_done());
    }

    #[test]
    fn wait_parks_until_a_racing_thread_completes() {
        let (completion, ticket) = completion_pair();
        let waiter = std::thread::spawn(move || ticket.wait());
        // Give the waiter a chance to park before completing.
        std::thread::sleep(std::time::Duration::from_millis(10));
        completion.complete(1234u64);
        assert_eq!(waiter.join().expect("waiter"), 1234);
    }

    #[test]
    fn many_tickets_multiplex_on_one_polling_thread() {
        let mut tickets = Vec::new();
        let mut completions = Vec::new();
        for i in 0..64u32 {
            let (completion, ticket) = completion_pair();
            completions.push((i, completion));
            tickets.push(ticket);
        }
        std::thread::spawn(move || {
            for (i, completion) in completions {
                completion.complete(i * 2);
            }
        });
        let mut got = vec![None; tickets.len()];
        while got.iter().any(Option::is_none) {
            for (i, ticket) in tickets.iter_mut().enumerate() {
                if got[i].is_none() {
                    got[i] = ticket.poll();
                }
            }
            std::thread::yield_now();
        }
        for (i, value) in got.into_iter().enumerate() {
            assert_eq!(value, Some(i as u32 * 2));
        }
    }

    #[test]
    #[should_panic(expected = "completion abandoned")]
    fn dropping_the_completion_panics_a_parked_waiter() {
        let (completion, ticket) = completion_pair::<u8>();
        drop(completion);
        ticket.wait();
    }

    #[test]
    #[should_panic(expected = "completion abandoned")]
    fn dropping_the_completion_panics_a_polling_consumer() {
        let (completion, mut ticket) = completion_pair::<u8>();
        drop(completion);
        ticket.poll();
    }

    #[test]
    fn gauge_tracks_high_water_across_drains() {
        let gauge = TicketGauge::new();
        let (a, ta) = completion_pair_gauged::<u8>(&gauge);
        let (b, tb) = completion_pair_gauged::<u8>(&gauge);
        assert_eq!(gauge.outstanding(), 2);
        assert_eq!(gauge.high_water(), 2);
        a.complete(1);
        drop(b); // abandonment also drains the gauge
        assert_eq!(gauge.outstanding(), 0);
        // The peak survives the drain.
        assert_eq!(gauge.high_water(), 2);
        let (c, tc) = completion_pair_gauged::<u8>(&gauge);
        assert_eq!(gauge.outstanding(), 1);
        assert_eq!(gauge.high_water(), 2);
        c.complete(3);
        assert_eq!(ta.wait(), 1);
        assert_eq!(tc.wait(), 3);
        drop(tb);
    }

    /// Park until `done()` holds. A lost wakeup fails at the deadline
    /// instead of hanging; spurious wakes just re-check.
    fn park_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while !done() {
            std::thread::park_timeout(deadline - std::time::Instant::now());
            assert!(
                std::time::Instant::now() < deadline,
                "never woken for {what}"
            );
        }
    }

    #[test]
    fn register_after_completion_reports_done_and_registers_nothing() {
        let (completion, mut ticket) = completion_pair();
        completion.complete(5u8);
        assert!(ticket.register(std::thread::current()));
        assert!(ticket.inner.lock().waiter.is_none());
        assert_eq!(ticket.poll(), Some(5));
        // Abandonment counts as finished too: no unpark will ever come.
        let (completion, ticket) = completion_pair::<u8>();
        drop(completion);
        assert!(ticket.register(std::thread::current()));
    }

    #[test]
    fn register_then_complete_unparks_the_registered_thread() {
        let (completion, mut ticket) = completion_pair();
        assert!(!ticket.register(std::thread::current()));
        let producer = std::thread::spawn(move || completion.complete(77u32));
        // `is_done` is only re-read after a wake: were the unpark lost,
        // this would sit out the whole deadline and fail.
        park_until("the completion", || ticket.is_done());
        assert_eq!(ticket.poll(), Some(77));
        // The wake consumed the registration.
        assert!(ticket.inner.lock().waiter.is_none());
        producer.join().expect("producer");
    }

    #[test]
    #[should_panic(expected = "completion abandoned")]
    fn abandoning_unparks_the_registered_thread_and_its_poll_panics() {
        let (completion, mut ticket) = completion_pair::<u8>();
        assert!(!ticket.register(std::thread::current()));
        std::thread::spawn(move || drop(completion));
        // A second `register` is the non-panicking done-ness probe.
        park_until("the abandonment", || {
            ticket.register(std::thread::current())
        });
        ticket.poll();
    }

    #[test]
    fn a_second_registration_replaces_the_first() {
        let (completion, mut ticket) = completion_pair();
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let bystander = std::thread::spawn(move || {
            let _ = parked.recv();
        });
        assert!(!ticket.register(bystander.thread().clone()));
        assert!(!ticket.register(std::thread::current()));
        let waiter = ticket.inner.lock().waiter.as_ref().map(Thread::id);
        assert_eq!(waiter, Some(std::thread::current().id()));
        std::thread::spawn(move || completion.complete(1u8));
        park_until("the completion", || ticket.is_done());
        assert_eq!(ticket.poll(), Some(1));
        drop(release);
        bystander.join().expect("bystander");
    }

    #[test]
    fn wait_after_a_registration_still_returns_the_value() {
        let (completion, ticket) = completion_pair();
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let bystander = std::thread::spawn(move || {
            let _ = parked.recv();
        });
        assert!(!ticket.register(bystander.thread().clone()));
        // `wait` names its own thread, displacing the registration; run
        // it on a thread we can give up on, so a hang fails the test.
        let (result, waited) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = result.send(ticket.wait());
        });
        completion.complete(9u8);
        let got = waited.recv_timeout(std::time::Duration::from_secs(20));
        assert_eq!(got, Ok(9));
        drop(release);
        bystander.join().expect("bystander");
    }

    #[test]
    fn poll_after_completion_never_reports_abandonment() {
        // Completing consumes the producer; its later drop must not mark
        // the (already served) request abandoned.
        let (completion, mut ticket) = completion_pair::<u8>();
        completion.complete(9);
        assert_eq!(ticket.poll(), Some(9));
        assert!(ticket.poll().is_none());
    }

    /// True if an unpark is pending for the calling thread (consumes
    /// it): with the token set `park_timeout` returns at once, without
    /// it the timeout runs out.
    fn take_park_token() -> bool {
        let wait = std::time::Duration::from_millis(20);
        let parked_at = std::time::Instant::now();
        std::thread::park_timeout(wait);
        parked_at.elapsed() < wait
    }

    #[test]
    fn a_deferred_completion_is_published_at_once_and_hands_its_waiter_over_once() {
        let (completion, mut ticket) = completion_pair();
        assert!(!ticket.register(std::thread::current()));
        let waiter = completion
            .complete_deferred(7u8)
            .expect("the registered waiter");
        assert_eq!(waiter.id(), std::thread::current().id());
        // Handed over, not kept: nobody else can be given the same wake.
        assert!(ticket.inner.lock().waiter.is_none());
        // Visible to every way of looking, and no unpark has happened.
        assert!(ticket.is_done());
        assert!(ticket.register(std::thread::current()));
        assert!(!take_park_token());
        assert_eq!(ticket.poll(), Some(7));
        // The wake is the caller's to deliver.
        waiter.unpark();
        assert!(take_park_token());
        // Without a waiter there is nothing to hand over.
        let (completion, ticket) = completion_pair();
        assert!(completion.complete_deferred(8u8).is_none());
        assert_eq!(ticket.wait(), 8);
    }

    #[test]
    fn a_registration_racing_a_deferred_completion_is_seen_by_exactly_one_side() {
        for round in 0..2_000u32 {
            let (completion, mut ticket) = completion_pair();
            let start = Arc::new(std::sync::Barrier::new(2));
            let producer = {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    completion.complete_deferred(round)
                })
            };
            start.wait();
            let already_done = ticket.register(std::thread::current());
            let handed_over = producer.join().expect("producer");
            // Either the producer was handed the waiter (and owes the
            // unpark) or the registration saw the result — never both,
            // never neither.
            assert_ne!(handed_over.is_some(), already_done, "round {round}");
            assert_eq!(ticket.poll(), Some(round));
        }
    }

    #[test]
    fn a_wake_list_unparks_each_thread_once_per_fire() {
        let mut wakes = WakeList::default();
        let mut tickets = Vec::new();
        for value in 0..5u8 {
            let (completion, ticket) = completion_pair();
            assert!(!ticket.register(std::thread::current()));
            wakes.push(completion.complete_deferred(value));
            tickets.push(ticket);
        }
        wakes.push(None);
        assert_eq!(wakes.threads.len(), 1, "one entry per thread");
        assert!(!take_park_token(), "nothing fires before `fire`");
        wakes.fire();
        assert!(wakes.threads.is_empty());
        assert!(take_park_token());
        for (value, ticket) in (0..).zip(tickets) {
            assert_eq!(ticket.wait(), value);
        }
    }

    #[test]
    fn a_wake_list_dropped_by_an_unwinding_producer_still_unparks() {
        let (completion, mut ticket) = completion_pair();
        assert!(!ticket.register(std::thread::current()));
        let producer = std::thread::spawn(move || {
            let mut wakes = WakeList::default();
            wakes.push(completion.complete_deferred(3u8));
            // Not `panic!`: same unwind, no message in the test output.
            std::panic::resume_unwind(Box::new("mid-pass"));
        });
        assert!(producer.join().is_err());
        assert!(take_park_token(), "the unwinding drop fired the list");
        assert_eq!(ticket.poll(), Some(3));
    }
}
