module Obs = Wlcq_obs.Obs

type reason = Deadline | Memory | Cancelled | Injected of string

let reason_to_string = function
  | Deadline -> "deadline"
  | Memory -> "memory"
  | Cancelled -> "cancelled"
  | Injected site -> "injected:" ^ site

exception Exhausted of reason

type token = { flag : bool Atomic.t }

let token () = { flag = Atomic.make false }
let cancel tk = Atomic.set tk.flag true
let cancelled tk = Atomic.get tk.flag

type t = {
  limited : bool;
  deadline_ns : int64;  (* Int64.max_int when no deadline *)
  max_heap_words : int;  (* max_int when no ceiling *)
  cancel : token option;
  tripped_cell : reason option Atomic.t;
  (* Coarse tick counter.  Deliberately a plain mutable field, not an
     Atomic: worker domains racing on it can only skew when the next
     full poll happens by a few iterations, never whether the budget
     trips — correctness lives in [tripped_cell]. *)
  (* lint: allow R3 benign racy tick counter, trip state is the Atomic next to it *)
  mutable ticks : int;
  (* lint: allow R3 benign racy heap-sample counter, a skew only moves the next sample *)
  mutable heap_polls : int;
}

let tick_interval = 1024
let tick_mask = tick_interval - 1

let unlimited =
  {
    limited = false;
    deadline_ns = Int64.max_int;
    max_heap_words = max_int;
    cancel = None;
    tripped_cell = Atomic.make None;
    ticks = 0;
    heap_polls = 0;
  }

let is_unlimited b = not b.limited

let m_polls = Obs.counter "robust.budget.polls"
let m_deadline = Obs.counter "robust.budget.deadline_hits"
let m_memory = Obs.counter "robust.budget.memory_hits"
let m_cancelled = Obs.counter "robust.budget.cancellations"
let m_injected = Obs.counter "robust.budget.injected_trips"
let m_created = Obs.counter "robust.budget.created"

let words_per_mb = 1024 * 1024 / (Sys.word_size / 8)

let create ?deadline_ms ?max_live_mb ?cancel () =
  let deadline_ns =
    match deadline_ms with
    | None -> Int64.max_int
    | Some ms ->
        if not (ms > 0.0) then
          invalid_arg "Budget.create: deadline_ms must be positive";
        Int64.add (Obs.now_ns ()) (Int64.of_float (ms *. 1e6))
  in
  let max_heap_words =
    match max_live_mb with
    | None -> max_int
    | Some mb ->
        if mb <= 0 then invalid_arg "Budget.create: max_live_mb must be positive";
        mb * words_per_mb
  in
  Obs.incr m_created;
  {
    limited = true;
    deadline_ns;
    max_heap_words;
    cancel;
    tripped_cell = Atomic.make None;
    ticks = 0;
    heap_polls = 0;
  }

let tripped b = if b.limited then Atomic.get b.tripped_cell else None

let live b =
  (not b.limited)
  || (match Atomic.get b.tripped_cell with None -> true | Some _ -> false)

let trip b r =
  if b.limited then
    if Atomic.compare_and_set b.tripped_cell None (Some r) then begin
      Obs.incr
        (match r with
        | Deadline -> m_deadline
        | Memory -> m_memory
        | Cancelled -> m_cancelled
        | Injected _ -> m_injected);
      (* First writer on the latch leaves the postmortem trail: one
         journal event naming the engine scope it interrupted, then
         the automatic flight-recorder dump. *)
      Obs.journal ~severity:Obs.Error
        ~attrs:[ ("reason", reason_to_string r) ]
        "budget.trip";
      Obs.journal_dump ~trigger:("budget." ^ reason_to_string r) ()
    end

(* [Gc.quick_stat] allocates a full statistics record, about 25 times
   the rest of a poll, so a ceiling samples the heap on a budget's first
   poll and then every [heap_sample_interval]th (a power of two).  A
   fork starts its own count, so it re-checks the ceiling at once. *)
let heap_sample_interval = 64

let heap_exceeded b =
  b.max_heap_words <> max_int
  && begin
    let n = b.heap_polls in
    b.heap_polls <- n + 1;
    n land (heap_sample_interval - 1) = 0
    && (Gc.quick_stat ()).Gc.heap_words > b.max_heap_words
  end

let poll b =
  if not b.limited then false
  else
    match Atomic.get b.tripped_cell with
    | Some _ -> true
    | None ->
        Obs.incr m_polls;
        if Fault.should_fail Fault.Deadline_check then begin
          trip b (Injected "deadline_check");
          true
        end
        else if
          b.deadline_ns <> Int64.max_int
          && Int64.compare (Obs.now_ns ()) b.deadline_ns >= 0
        then begin
          trip b Deadline;
          true
        end
        else if heap_exceeded b then begin
          trip b Memory;
          true
        end
        else
          match b.cancel with
          | Some tk when cancelled tk ->
              trip b Cancelled;
              true
          | _ -> false

let tick b =
  if b.limited then begin
    let n = b.ticks + 1 in
    b.ticks <- n;
    if n land tick_mask = 0 then ignore (poll b)
  end

let check b =
  if b.limited then begin
    ignore (poll b);
    match Atomic.get b.tripped_cell with
    | Some r -> raise (Exhausted r)
    | None -> ()
  end

let tick_check b =
  if b.limited then begin
    tick b;
    match Atomic.get b.tripped_cell with
    | Some r -> raise (Exhausted r)
    | None -> ()
  end

(* A continuation budget for the next rung of a degradation ladder:
   same limits and token, fresh trip latch and counters.  The trip
   *conditions* are re-evaluated from scratch — a passed deadline, a
   still-exceeded heap ceiling or a cancelled token re-trips at the
   fork's first poll — so forking only forgets the latch, never the
   budget.  Forking [unlimited] is [unlimited]. *)
let fork b =
  if not b.limited then b
  else { b with tripped_cell = Atomic.make None; ticks = 0; heap_polls = 0 }

let remaining_ns b =
  if b.deadline_ns = Int64.max_int then None
  else Some (Int64.sub b.deadline_ns (Obs.now_ns ()))
