(** Domain-safe observability for the WL / hom-counting engines.

    Four facilities, all designed so that instrumented code stays
    clean under wlcq-lint's R3 domain-safety rule without pragmas:

    - a {e metrics registry} of named monotonic counters and value
      distributions.  Every cell is an [Atomic.t]; counters stripe
      their cells by domain id so concurrent increments from
      [Domain.spawn] workers never contend on one cache line, and
      reads aggregate the stripes.  Distributions additionally keep
      log2-bucketed histograms, so {!quantile} answers p50/p99
      queries with at most one bucket (a factor of 2) of error.  A
      metric's stripes are allocated by its first recorded write, so
      registering one costs a name and an empty slot, and a
      never-written metric reads as zero;
    - a {e span API} ({!span}) with monotonic-clock timing and
      nesting (per-domain stacks via [Domain.DLS]).  Closed spans
      feed an aggregated per-path summary, optionally capture
      [Gc.quick_stat] allocation deltas ({!set_alloc_profiling}) and,
      when {!tracing} is on, a Chrome [trace_event] JSON log
      ({!trace_json}).  {!folded} renders the summaries in
      collapsed-stack format for flamegraph tooling;
    - a {e flight recorder} ({!journal}): a bounded, domain-striped
      ring of structured events (timestamp, severity, domain,
      component, key=value attrs) with a one-load disabled path,
      allocated by the first entry written while it is armed,
      exported as JSONL ({!journal_jsonl}) and dumped automatically
      by [lib/robust] when a budget trips or a fault fires
      ({!set_journal_dump});
    - {e enable flags}: the disabled path of every operation is a
      single [Atomic.get] + branch, and flipping {!compiled_in} to
      [false] lets the compiler fold the instrumentation out
      entirely.

    Registration ({!counter}, {!distribution}) is idempotent by name
    and safe from any domain.  Recording ({!incr}, {!add},
    {!observe}, {!span}, {!journal}) is safe from any domain.
    {!reset} and the read APIs are meant for the driver domain
    between experiments, not for concurrent use with live workers. *)

(** {1 Enabling} *)

(** Static kill switch.  When [false], {!enabled} is constantly
    [false] and the instrumentation branches compile away.  Kept as a
    plain boolean constant so flipping it needs a one-character
    edit. *)
val compiled_in : bool

(** [set_enabled b] turns metric and span recording on or off
    (subject to {!compiled_in}).  Off by default. *)
val set_enabled : bool -> unit

(** [enabled ()] is the current recording state: one atomic load. *)
val enabled : unit -> bool

(** [set_tracing b] additionally records every closed span as a
    Chrome [trace_event] (requires {!enabled}).  Off by default. *)
val set_tracing : bool -> unit

(** [tracing ()] is the current trace-recording state. *)
val tracing : unit -> bool

(** [set_journal b] arms the flight recorder.  Independent of
    {!enabled}, so a production run can keep the cheap journal armed
    with full metric recording off.  Off by default. *)
val set_journal : bool -> unit

(** [journal_on ()] is the current flight-recorder state. *)
val journal_on : unit -> bool

(** [set_alloc_profiling b] makes every closed {!span} attribute
    [Gc.quick_stat] minor/major/promoted word deltas to its path
    (requires {!enabled}).  Off by default. *)
val set_alloc_profiling : bool -> unit

(** [alloc_profiling ()] is the current allocation-profiling state. *)
val alloc_profiling : unit -> bool

(** {1 Counters} *)

(** A named monotonic counter, striped over per-domain atomic
    cells. *)
type counter

(** [counter name] registers (or retrieves) the counter [name].
    Idempotent: one counter object per name, shared by all
    callers. *)
val counter : string -> counter

(** [incr c] adds 1 when {!enabled}; a no-op otherwise. *)
val incr : counter -> unit

(** [add c n] adds [n] when {!enabled}; a no-op otherwise. *)
val add : counter -> int -> unit

(** [counter_value c] sums the stripes. *)
val counter_value : counter -> int

(** [find_counter name] looks a counter up without registering it. *)
val find_counter : string -> counter option

(** {1 Distributions} *)

(** A named value distribution: count / sum / min / max plus a
    log2-bucketed histogram, striped like counters. *)
type distribution

type dist_summary = {
  d_count : int;
  d_sum : int;
  d_min : int;  (** [max_int] when empty *)
  d_max : int;  (** [min_int] when empty *)
}

(** [distribution name] registers (or retrieves) the distribution
    [name]. *)
val distribution : string -> distribution

(** [observe d v] records [v] when {!enabled}; a no-op otherwise. *)
val observe : distribution -> int -> unit

val distribution_value : distribution -> dist_summary

(** [find_distribution name] looks a distribution up without
    registering it. *)
val find_distribution : string -> distribution option

(** {2 Histogram buckets}

    Bucket [0] holds every observed [v <= 0]; bucket [i >= 1] holds
    the values of bit length [i], i.e. [2^(i-1) <= v <= 2^i - 1].
    There are {!num_buckets} buckets, enough for the whole native-int
    range. *)

(** Number of histogram buckets (63). *)
val num_buckets : int

(** [bucket_of v] is the bucket index [v] lands in. *)
val bucket_of : int -> int

(** [bucket_upper i] is the largest value bucket [i] can hold
    ([0] for bucket 0, [max_int] for the last bucket). *)
val bucket_upper : int -> int

(** [distribution_buckets d] is the aggregated per-bucket counts,
    length {!num_buckets}. *)
val distribution_buckets : distribution -> int array

(** [quantile d q] estimates the [q]-quantile of the observed values
    from the histogram: the estimate [e] satisfies [t <= e < 2 * t]
    for a true positive quantile [t] (one log2 bucket of relative
    error), clamped to the observed maximum.  [None] when the
    distribution is empty.
    @raise Invalid_argument unless [0 <= q <= 1]. *)
val quantile : distribution -> float -> int option

(** {1 Reading and resetting} *)

(** All registered counters with their aggregated values, sorted by
    name. *)
val counters : unit -> (string * int) list

(** All registered distributions with their summaries, sorted by
    name. *)
val distributions : unit -> (string * dist_summary) list

(** [reset ()] zeroes every counter, distribution and histogram,
    drops the span summaries, clears the journal ring and clears the
    trace log; registered metric handles stay valid.
    [~keep_trace:true] preserves the trace log (used by the bench
    harness, which resets metrics per experiment but emits one trace
    for the whole run). *)
val reset : ?keep_trace:bool -> unit -> unit

(** {1 Clock} *)

(** [now_ns ()] is the monotonic clock, in nanoseconds.  Always live,
    independent of {!enabled}. *)
val now_ns : unit -> int64

(** [time_ns f] runs [f] and returns its result with the elapsed
    monotonic nanoseconds. *)
val time_ns : (unit -> 'a) -> 'a * int64

(** {1 Spans} *)

(** [span name f] times [f ()] on the monotonic clock and records it
    under the path [parent-path/name] (nesting is tracked per
    domain).  When disabled this is a single branch around [f ()].
    [attrs] are attached to the trace event ({!trace_json}) when
    tracing.  Under {!set_alloc_profiling} the span also records the
    calling domain's [Gc.quick_stat] word deltas. *)
val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

type span_summary = {
  s_path : string;  (** ["kwl.run/kwl.round"]-style nesting path *)
  s_count : int;
  s_total_ns : int;
  s_max_ns : int;
  s_minor_words : int;  (** 0 unless {!alloc_profiling} was on *)
  s_major_words : int;
  s_promoted_words : int;
}

(** Aggregated closed spans, sorted by path (so parents precede their
    children). *)
val span_summaries : unit -> span_summary list

(** Plain-text hierarchical summary of {!span_summaries}: one line
    per path, indented by nesting depth; allocation columns appear
    when any span recorded nonzero word deltas. *)
val span_report : unit -> string

(** [folded ()] renders the span summaries in collapsed-stack
    ("folded") format: one [path;to;span self-weight] line per path,
    where the self weight is the span's total minus its direct
    children's.  [~weight:`Alloc_words] weights by allocated words
    (minor + major) instead of nanoseconds.  Feed the output to
    flamegraph.pl, inferno or speedscope. *)
val folded : ?weight:[ `Time_ns | `Alloc_words ] -> unit -> string

(** {1 Entry points and scopes} *)

(** [entry_point name f] wraps a [*_budgeted] engine surface: while
    [f] runs, [name] is the {!current_scope} of the calling domain
    (and the best-effort fallback scope for worker domains), so
    journal events default their component to the engine that was
    running.  On exit it feeds the wall time into the
    [entry.<name>.wall_ns] histogram.  When both {!enabled} and
    {!journal_on} are off this is a single branch around [f ()]. *)
val entry_point : string -> (unit -> 'a) -> 'a

(** [current_scope ()] is the innermost open {!entry_point} name of
    this domain, falling back to the last entry opened by any domain
    (worker domains inherit their spawner's engine that way), or [""]
    outside any entry. *)
val current_scope : unit -> string

(** {1 Flight recorder} *)

type severity = Debug | Info | Warn | Error

val severity_to_string : severity -> string

type journal_entry = {
  j_ts_ns : int64;  (** monotonic ns, relative to process start *)
  j_severity : severity;
  j_tid : int;  (** recording domain id *)
  j_component : string;  (** engine scope, see {!current_scope} *)
  j_msg : string;
  j_attrs : (string * string) list;
}

(** Ring capacity per stripe; the recorder keeps at most
    [num_stripes * journal_capacity] events and overwrites the
    oldest per stripe. *)
val journal_capacity : int

(** [journal msg] appends a structured event to the calling domain's
    ring when {!journal_on}; a single branch otherwise.  [component]
    defaults to {!current_scope}.  Events are published with one
    atomic store, so concurrent readers never observe a torn
    event. *)
val journal :
  ?severity:severity ->
  ?attrs:(string * string) list ->
  ?component:string ->
  string ->
  unit

(** All live journal events, sorted by timestamp then domain id. *)
val journal_entries : unit -> journal_entry list

(** [journal_jsonl ()] renders {!journal_entries} as JSON Lines: one
    strict-JSON object per line with [ts_ns], [sev], [tid], [comp],
    [msg] and [attrs] fields. *)
val journal_jsonl : unit -> string

(** [set_journal_dump (Some file)] arms automatic postmortem dumps:
    {!journal_dump} (called by [lib/robust] on budget trips and fault
    injections) rewrites [file] with the current JSONL journal.
    [None] (the default) disables dumping. *)
val set_journal_dump : string option -> unit

(** [journal_dump ~trigger ()] appends a [journal.dump] event naming
    [trigger] and rewrites the dump file with the full JSONL journal.
    A no-op when the journal is off or no dump path is set; write
    errors are swallowed (a postmortem must not break the degraded
    result it documents). *)
val journal_dump : trigger:string -> unit -> unit

(** {1 Trace export} *)

(** [trace_json ()] renders every recorded span as a Chrome
    [trace_event] complete event ([ph = "X"]) in a JSON array, ready
    for [chrome://tracing] / Perfetto.  Timestamps are microseconds
    relative to process start; [tid] is the recording domain id.
    Events are ordered by (timestamp, tid, name), so the output is
    deterministic across domain interleavings. *)
val trace_json : unit -> string

(** [json_parseable s] checks that [s] is one syntactically valid
    JSON value (the whole string).  An alias for
    [Wlcq_strictjson.Strict_json.parseable] — the same acceptor that
    gates wlcq-lint's --json output. *)
val json_parseable : string -> bool

(** {1 Reports} *)

(** [metrics_table ()] formats the non-zero counters, the
    distributions (with p50/p99 histogram estimates) and the span
    summary as an aligned plain-text table (empty sections are
    omitted). *)
val metrics_table : unit -> string

(** [report_hit_rate ~hits ~misses] is [hits / (hits + misses)] read
    from the two named counters; [None] when either counter is
    unregistered or no events were recorded.  The bench smoke mode
    asserts cache hit rates through this. *)
val report_hit_rate : hits:string -> misses:string -> float option
