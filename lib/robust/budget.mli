(** Execution budgets: wall-clock deadlines, cooperative cancellation
    and memory ceilings for the worst-case-exponential engines.

    Every core routine of this reproduction — branch-and-bound
    treewidth, the [n^k] k-WL engines, brute-force counting, CFI
    builds — is exponential in the worst case, and deciding the WL
    dimension itself is NP-hard (Lichter–Raßmann–Schweitzer 2024).  A
    {!t} bounds such a computation {e cooperatively}: the engines call
    {!tick} (cheap, amortised by an internal coarse tick counter) or
    {!check} (raising) at loop boundaries, and unwind with a sound
    partial or degraded answer when the budget trips.

    A budget trips for one of four {!reason}s: the monotonic-clock
    deadline passed, the sampled major-heap size exceeded the ceiling,
    the cancellation token was cancelled, or the {!Fault} layer
    injected a failure at a deadline-check site.

    The tripped state is an [Atomic.t], so worker domains may {!tick}
    a shared budget concurrently and the driver reads one consistent
    verdict.  The internal tick counter is deliberately racy (a missed
    or doubled tick only shifts the next poll by a few iterations).

    {!unlimited} is inert: every operation on it is a single branch,
    so threading [?budget] defaults through the engines costs nothing
    measurable (bench row F4 enforces ≤ 3%). *)

(** Why a budget tripped. *)
type reason =
  | Deadline  (** the wall-clock deadline passed (monotonic clock) *)
  | Memory  (** [Gc.quick_stat] major-heap words exceeded the ceiling *)
  | Cancelled  (** the cancellation token was cancelled *)
  | Injected of string  (** the {!Fault} layer forced this trip *)

val reason_to_string : reason -> string

(** Raised by {!check} (and by engines threading a budget) when the
    budget has tripped.  Budgeted entry points ([*_budgeted]) catch it
    and return an {!Outcome.t}; it escapes only from the raising
    [?budget] variants, which document it. *)
exception Exhausted of reason

(** {1 Cancellation tokens} *)

(** A cooperative cancellation token, safe to cancel from any domain
    (or from a signal handler). *)
type token

val token : unit -> token

(** [cancel tk] requests cancellation; idempotent. *)
val cancel : token -> unit

val cancelled : token -> bool

(** {1 Budgets} *)

type t

(** The inert budget: never trips, never consults the fault layer.
    All engine [?budget] parameters default to it. *)
val unlimited : t

val is_unlimited : t -> bool

(** [create ()] builds a live budget.  [deadline_ms] is relative to
    the call, on the monotonic clock.  [max_live_mb] bounds the major
    heap ([Gc.quick_stat].heap_words, the live-word proxy), in MiB.
    The heap is sampled on the budget's first poll and then on every
    64th, since a sample costs about 25 times the rest of a poll.
    [cancel] attaches a cancellation token.  A live budget with no
    limit at all is still useful: it consults the {!Fault} layer, so
    the test suite can force every exhaustion path deterministically.
    @raise Invalid_argument on non-positive limits. *)
val create :
  ?deadline_ms:float -> ?max_live_mb:int -> ?cancel:token -> unit -> t

(** [tick b] is the hot-loop entry point: bumps the coarse tick
    counter and, every {!tick_interval} ticks, runs a full poll
    (clock, heap sample, token, fault hook).  Never raises; the trip
    is recorded in [b] for {!tripped} / {!check} to observe.  On
    {!unlimited} this is one branch. *)
val tick : t -> unit

(** [tick_check b] is {!tick} followed by {!check} — for driver-domain
    loops that want to unwind by exception.
    @raise Exhausted when the budget has tripped. *)
val tick_check : t -> unit

(** [poll b] runs a full poll immediately (bypassing the tick
    counter); returns [true] when the budget is (now) tripped. *)
val poll : t -> bool

(** [tripped b] is the recorded trip, if any: one atomic load. *)
val tripped : t -> reason option

(** [live b] is [tripped b = None], as a branch-cheap test for
    worker-domain loops that must wind down without raising. *)
val live : t -> bool

(** [check b] polls and raises when tripped.
    @raise Exhausted when the budget has tripped. *)
val check : t -> unit

(** [trip b r] records [r] as the trip reason (first writer wins).
    Worker domains use it to surface an {!Exhausted} caught on their
    side of a [Domain.spawn] to the driver. *)
val trip : t -> reason -> unit

(** Ticks between full polls (a power of two).  Exposed so tests can
    size their loops to guarantee a poll. *)
val tick_interval : int

(** [fork b] is a continuation budget for the next rung of a
    degradation ladder: the same limits and cancellation token, but a
    fresh trip latch.  The trip conditions are re-evaluated from
    scratch at the fork's first poll — a passed deadline, a
    still-exceeded heap ceiling or a cancelled token trips again
    immediately — so forking forgets only the latch (and any
    fault-injected trip), never the budget.  [fork unlimited] is
    [unlimited]. *)
val fork : t -> t

(** [remaining_ns b] is the time left before the deadline ([None] when
    the budget has no deadline). *)
val remaining_ns : t -> int64 option
