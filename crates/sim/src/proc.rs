//! Processes, their durable disks, and the handler context.
//!
//! A [`Process`] is a deterministic state machine living on a simulated
//! node. It reacts to messages and timers through a [`Ctx`] that buffers
//! effects (sends, timers) which the kernel applies after the handler
//! returns — the classic discrete-event structure of distributed protocol
//! code, and exactly the shape that makes crash points precise: a crash can
//! only happen *between* handler invocations.
//!
//! Volatile state (the `Process` value itself) is destroyed by a node crash.
//! The handles a process took from its [`Disk`] when it booted survive, and
//! the factory takes the same handles again on restart — this models
//! durable storage without byte-level serialization.

use crate::detmap::DetHashMap as HashMap;
use std::any::Any;
use std::fmt;

use crate::metrics::Metrics;
use crate::payload::Payload;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{SpanId, SpanKind, Tracer};

/// Identifies a simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifies a process (service instance, actor runtime, broker, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// The pseudo-sender used for messages injected by the test harness
    /// ("the outside world" / client edge).
    pub const EXTERNAL: ProcessId = ProcessId(u32::MAX);
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ProcessId::EXTERNAL {
            write!(f, "ext")
        } else {
            write!(f, "p{}", self.0)
        }
    }
}

/// Handle to a pending timer, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub u64);

/// Durable per-process storage that survives node crashes.
///
/// The disk is a set of named *handles* (`Rc<RefCell<_>>`, `Rc<Cell<_>>`,
/// `DurableLog`, …). A process takes its handles from [`Boot::disk`] when
/// it is built and from then on updates them in place: the process and the
/// disk hold the same allocation, so whatever a handler left in a handle
/// is what the next incarnation finds there. There is no other way in — a
/// handler has no disk to read, and a test that wants to look at durable
/// state reads the process's own handle through [`Sim::inspect`].
///
/// [`Sim::inspect`]: crate::Sim::inspect
#[derive(Default)]
pub struct Disk {
    entries: HashMap<String, Box<dyn Any>>,
}

impl Disk {
    /// Empty disk.
    pub fn new() -> Self {
        Disk::default()
    }

    /// The durable handle stored under `key`, created on first boot:
    /// returns a clone of the stored handle, or stores and returns
    /// `T::default()` when there is none (or it has another type).
    pub fn durable<T: Any + Clone + Default>(&mut self, key: &str) -> T {
        if let Some(handle) = self.entries.get(key).and_then(|h| h.downcast_ref::<T>()) {
            return handle.clone();
        }
        let handle = T::default();
        self.entries
            .insert(key.to_owned(), Box::new(handle.clone()));
        handle
    }
}

/// A deterministic event-driven process. Every process is [`Any`], so a
/// harness can read its concrete state after a run ([`Sim::inspect`])
/// without the process doing anything to allow it.
///
/// [`Sim::inspect`]: crate::Sim::inspect
pub trait Process: Any {
    /// Called once when the process (re)starts, after construction.
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx, _tag: u64) {}
}

/// Construction-time view handed to process factories. It is the only way
/// to the durable disk: a process's durable state is exactly the handles it
/// takes here.
pub struct Boot<'a> {
    /// The process's durable storage, surviving from before the crash.
    pub disk: &'a mut Disk,
    /// The process's identity.
    pub pid: ProcessId,
    /// The node the process runs on.
    pub node: NodeId,
    /// Virtual time of the (re)start.
    pub now: SimTime,
    /// True when this is a restart after a crash rather than first boot.
    pub restart: bool,
}

/// Factory recreating a process's volatile state, possibly from its disk.
pub type ProcessFactory = Box<dyn FnMut(&mut Boot) -> Box<dyn Process>>;

/// `Option<SpanId>` packed into one word for queued events and buffered
/// effects: span ids start at 1, so `0` is free to mean "no span". The
/// unpacked form is 16 bytes; every queued event carries two optional
/// words (span + deadline), so packing shrinks the structures the kernel
/// moves on every single event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanWord(u64);

impl SpanWord {
    pub(crate) const NONE: SpanWord = SpanWord(0);

    #[inline]
    pub(crate) fn pack(span: Option<SpanId>) -> Self {
        SpanWord(span.map_or(0, |s| s.0))
    }

    #[inline]
    pub(crate) fn get(self) -> Option<SpanId> {
        if self.0 == 0 {
            None
        } else {
            Some(SpanId(self.0))
        }
    }
}

/// `Option<SimTime>` deadline packed the same way; `u64::MAX` nanoseconds
/// (~584 simulated years) stands for "no deadline".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeadlineWord(u64);

impl DeadlineWord {
    pub(crate) const NONE: DeadlineWord = DeadlineWord(u64::MAX);

    #[inline]
    pub(crate) fn pack(deadline: Option<SimTime>) -> Self {
        DeadlineWord(deadline.map_or(u64::MAX, |t| t.as_nanos()))
    }

    #[inline]
    pub(crate) fn get(self) -> Option<SimTime> {
        if self.0 == u64::MAX {
            None
        } else {
            Some(SimTime::from_nanos(self.0))
        }
    }
}

/// Buffered effect produced by a handler; applied by the kernel afterwards.
///
/// `Send` and `SetTimer` carry the span that was current when the effect was
/// buffered — this is how causal trace context propagates across the wire
/// and across timer firings. The field is always `NONE` when tracing is off.
/// They also carry the request deadline current at buffering time, so the
/// remaining time budget rides every causal edge the same way span context
/// does: a handler working on behalf of a deadlined request stamps that
/// deadline onto everything it sends and every timer it arms.
pub(crate) enum Effect {
    Send {
        to: ProcessId,
        payload: Payload,
        extra_delay: SimDuration,
        span: SpanWord,
        deadline: DeadlineWord,
    },
    SetTimer {
        id: TimerId,
        delay: SimDuration,
        tag: u64,
        span: SpanWord,
        deadline: DeadlineWord,
    },
    CancelTimer(TimerId),
    Halt,
}

/// The handler-side view of the simulation: clock, randomness, messaging,
/// timers, and metrics.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) pid: ProcessId,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) effects: Vec<Effect>,
    pub(crate) timer_seq: &'a mut u64,
    pub(crate) tracer: &'a mut Tracer,
    /// Stack of currently entered spans; the top parents new spans and is
    /// stamped onto buffered sends/timers. Stays empty (never allocates)
    /// while tracing is off.
    pub(crate) span_stack: Vec<SpanId>,
    /// Absolute deadline of the request this handler is working for, seeded
    /// from the incoming message/timer edge and stamped onto buffered
    /// sends/timers. `None` = no deadline (the default everywhere).
    pub(crate) deadline: Option<SimTime>,
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This process's id.
    #[inline]
    pub fn me(&self) -> ProcessId {
        self.pid
    }

    /// The node this process runs on.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Send `payload` to `to` over the simulated network.
    #[inline]
    pub fn send(&mut self, to: ProcessId, payload: Payload) {
        let span = SpanWord::pack(self.current_span());
        let deadline = DeadlineWord::pack(self.deadline);
        self.effects.push(Effect::Send {
            to,
            payload,
            extra_delay: SimDuration::ZERO,
            span,
            deadline,
        });
    }

    /// Send after holding the message locally for `delay` first.
    #[inline]
    pub fn send_after(&mut self, to: ProcessId, payload: Payload, delay: SimDuration) {
        let span = SpanWord::pack(self.current_span());
        let deadline = DeadlineWord::pack(self.deadline);
        self.effects.push(Effect::Send {
            to,
            payload,
            extra_delay: delay,
            span,
            deadline,
        });
    }

    /// Arm a timer that fires [`Process::on_timer`] with `tag` after `delay`.
    #[inline]
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        *self.timer_seq += 1;
        let id = TimerId(*self.timer_seq);
        let span = SpanWord::pack(self.current_span());
        let deadline = DeadlineWord::pack(self.deadline);
        self.effects.push(Effect::SetTimer {
            id,
            delay,
            tag,
            span,
            deadline,
        });
        id
    }

    /// Cancel a previously armed timer. Cancelling an already-fired timer
    /// is a no-op.
    #[inline]
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// Stop this process permanently (it will not receive further events).
    pub fn halt(&mut self) {
        self.effects.push(Effect::Halt);
    }

    /// The deterministic random number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The run-wide metrics registry.
    #[inline]
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    // ----- deadline propagation -------------------------------------------
    //
    // A deadline is the absolute virtual time by which the request this
    // handler serves must complete. It propagates exactly like span context:
    // seeded from the incoming message/timer edge, stamped onto every
    // buffered send and timer, and carried by the kernel across the wire.
    // Since the sim has one global clock, the absolute deadline IS the
    // remaining budget on the wire — no clock-skew translation is needed.

    /// The deadline of the request currently being served, if any.
    #[inline]
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// Replace the current deadline, returning the previous one so callers
    /// can save/restore around work done for a different request. Pass
    /// `None` to clear. Subsequent sends and timers carry the new value.
    pub fn set_deadline(&mut self, deadline: Option<SimTime>) -> Option<SimTime> {
        std::mem::replace(&mut self.deadline, deadline)
    }

    /// Set the deadline to `budget` from now, returning the previous one.
    pub fn set_deadline_after(&mut self, budget: SimDuration) -> Option<SimTime> {
        self.set_deadline(Some(self.now + budget))
    }

    /// True when a deadline is set and has already passed: the work this
    /// handler would do can no longer be useful to the requester.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| self.now >= d)
    }

    /// Time remaining until the deadline (`None` when no deadline is set;
    /// zero when already expired).
    pub fn deadline_remaining(&self) -> Option<SimDuration> {
        self.deadline.map(|d| d.since(self.now))
    }

    // ----- causal tracing -------------------------------------------------
    //
    // All of these are branch-only no-ops while tracing is disabled: label
    // closures are never evaluated, nothing allocates, and span ids come
    // from the tracer's own counter — never from the RNG — so enabling
    // tracing cannot perturb the deterministic schedule.

    /// Whether span tracing is enabled for this run.
    pub fn tracing(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// The innermost currently entered span, if any. New spans are parented
    /// under it and buffered sends/timers carry it across the wire.
    #[inline]
    pub fn current_span(&self) -> Option<SpanId> {
        self.span_stack.last().copied()
    }

    /// Open a span starting now, parented under [`Ctx::current_span`]. The
    /// label closure is only evaluated when tracing is on. Returns `None`
    /// when tracing is off (all other `trace_*` calls accept that `None`).
    pub fn trace_span(&mut self, kind: SpanKind, label: impl FnOnce() -> String) -> Option<SpanId> {
        self.tracer
            .start(kind, self.pid, self.current_span(), self.now, label)
    }

    /// Record a span covering `[now, until]` — for waits whose extent is
    /// already known, like time queued behind earlier work at a server.
    pub fn trace_interval(
        &mut self,
        kind: SpanKind,
        until: SimTime,
        label: impl FnOnce() -> String,
    ) -> Option<SpanId> {
        self.tracer.interval(
            kind,
            self.pid,
            self.current_span(),
            self.now,
            until.max(self.now),
            label,
        )
    }

    /// Close a span at the current virtual time. `None` is a no-op.
    pub fn trace_span_end(&mut self, span: Option<SpanId>) {
        if let Some(id) = span {
            self.tracer.end(id, self.now);
        }
    }

    /// Push `span` as the current span, so following sends, timers, and
    /// child spans attach under it. Must be paired with [`Ctx::trace_exit`].
    pub fn trace_enter(&mut self, span: Option<SpanId>) {
        if let Some(id) = span {
            self.span_stack.push(id);
        }
    }

    /// Pop the span pushed by the matching [`Ctx::trace_enter`]. Pass the
    /// same value: a `None` enter was a no-op, so its exit is too.
    pub fn trace_exit(&mut self, span: Option<SpanId>) {
        if span.is_some() {
            self.span_stack.pop();
        }
    }

    /// Record a point annotation on the current span (or as a free-floating
    /// event). The closure is only evaluated when tracing is on.
    pub fn trace_event(&mut self, what: impl FnOnce() -> String) {
        let span = self.current_span();
        self.tracer.event(self.now, self.pid, span, what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn durable_returns_the_stored_handle() {
        let mut d = Disk::new();
        // Created as `T::default()`, once: the second take is the same
        // allocation, so an in-place update is what a reboot finds.
        let count: Rc<Cell<u64>> = d.durable("count");
        assert_eq!(count.get(), 0);
        count.set(42);
        let again: Rc<Cell<u64>> = d.durable("count");
        assert!(Rc::ptr_eq(&count, &again));
        assert_eq!(again.get(), 42);
        // A handle of another type replaces what was stored.
        let other: Rc<Cell<u32>> = d.durable("count");
        assert_eq!(other.get(), 0);
        let back: Rc<Cell<u64>> = d.durable("count");
        assert!(!Rc::ptr_eq(&count, &back));
        assert_eq!(back.get(), 0);
    }

    #[test]
    fn ids_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(ProcessId(5).to_string(), "p5");
        assert_eq!(ProcessId::EXTERNAL.to_string(), "ext");
    }
}
