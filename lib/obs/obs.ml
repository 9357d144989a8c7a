(* Domain-safe metrics, spans, tracing and the flight recorder.
   Design constraint: every piece of global state in this module is
   either an [Atomic.t] (the flags, the registries, every metric
   cell, the journal ring and its slots) or per-domain
   ([Domain.DLS] span and scope stacks), so the whole library — and
   every module that merely *uses* it — passes wlcq-lint's R3 rule
   with no suppression.  Registries are immutable lists swapped in
   with a CAS loop; metric cells are striped by domain id so worker
   domains do not contend on one cache line.  Stripe arrays and the
   journal ring are created by their first write: registering a
   metric at module initialisation allocates only its name and an
   empty slot, so a one-shot process that records nothing pays for
   none of them. *)

module Strict_json = Wlcq_strictjson.Strict_json

(* ------------------------------------------------------------------ *)
(* Enable flags                                                        *)
(* ------------------------------------------------------------------ *)

(* Flip to [false] to compile the instrumentation out: [enabled]
   becomes the constant [false] and every guarded branch folds away. *)
let compiled_in = true

let enabled_flag = Atomic.make false
let tracing_flag = Atomic.make false
let journal_flag = Atomic.make false
let alloc_flag = Atomic.make false

let enabled () = compiled_in && Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag (compiled_in && b)
let tracing () = compiled_in && Atomic.get tracing_flag
let set_tracing b = Atomic.set tracing_flag (compiled_in && b)
let journal_on () = compiled_in && Atomic.get journal_flag
let set_journal b = Atomic.set journal_flag (compiled_in && b)
let alloc_profiling () = compiled_in && Atomic.get alloc_flag
let set_alloc_profiling b = Atomic.set alloc_flag (compiled_in && b)

(* ------------------------------------------------------------------ *)
(* Striped atomic cells                                                *)
(* ------------------------------------------------------------------ *)

(* Power of two so the stripe index is a mask of the domain id. *)
let num_stripes = 16

let stripe () = (Domain.self () :> int) land (num_stripes - 1)

let sum_cells cells =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 cells

let zero_cells cells = Array.iter (fun c -> Atomic.set c 0) cells

(* [materialise slot make] is the array behind [slot], created by
   [make] and published with one CAS if the slot is still empty.  A
   slot only ever goes from [None] to [Some], so the loser of a racing
   first write reads the winner's array and drops its own. *)
let materialise slot make =
  match Atomic.get slot with
  | Some cells -> cells
  | None -> (
    let cells = make () in
    if Atomic.compare_and_set slot None (Some cells) then cells
    else match Atomic.get slot with Some winner -> winner | None -> cells)

(* [written slot] is the array behind [slot], empty before the first
   write: readers and [reset] see a never-written metric as zeros. *)
let written slot = match Atomic.get slot with None -> [||] | Some a -> a

(* lint: allow R7 lock-free CAS retry, bounded by contending domains *)
let rec atomic_min cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then atomic_min cell v

(* lint: allow R7 lock-free CAS retry, bounded by contending domains *)
let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; c_cells : int Atomic.t array option Atomic.t }

let counter_registry : counter list Atomic.t = Atomic.make []

let find_counter name =
  List.find_opt
    (fun c -> String.equal c.c_name name)
    (Atomic.get counter_registry)

let rec counter name =
  match find_counter name with
  | Some c -> c
  | None ->
    let c =
      { c_name = name; c_cells = Atomic.make None }
    in
    let old = Atomic.get counter_registry in
    if
      List.exists (fun c' -> String.equal c'.c_name name) old
      || not (Atomic.compare_and_set counter_registry old (c :: old))
    then counter name (* lost the race: re-find the winner *)
    else c

let fresh_counter_cells () = Array.init num_stripes (fun _ -> Atomic.make 0)

let add c n =
  if enabled () then
    ignore
      (Atomic.fetch_and_add
         (materialise c.c_cells fresh_counter_cells).(stripe ()) n)

let incr c = add c 1

let counter_value c = sum_cells (written c.c_cells)

(* ------------------------------------------------------------------ *)
(* Distributions with log2-bucketed histograms                         *)
(* ------------------------------------------------------------------ *)

(* Bucket i >= 1 holds the values whose bit length is i, i.e.
   2^(i-1) <= v <= 2^i - 1; bucket 0 holds every v <= 0.  With OCaml's
   63-bit immediates the largest positive bit length is 62, so 63
   buckets cover the whole int range and a quantile read off a bucket
   upper bound over-estimates the true order statistic by less than
   one bucket width (a factor of 2). *)
let num_buckets = 63

(* Branch-chain bit length: no loop, so the observe path stays cheap
   and trivially poll-free. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    if !x lsr 32 <> 0 then begin b := !b + 32; x := !x lsr 32 end;
    if !x lsr 16 <> 0 then begin b := !b + 16; x := !x lsr 16 end;
    if !x lsr 8 <> 0 then begin b := !b + 8; x := !x lsr 8 end;
    if !x lsr 4 <> 0 then begin b := !b + 4; x := !x lsr 4 end;
    if !x lsr 2 <> 0 then begin b := !b + 2; x := !x lsr 2 end;
    if !x lsr 1 <> 0 then begin b := !b + 1 end;
    !b + 1
  end

let bucket_upper i =
  if i <= 0 then 0
  else if i >= num_buckets - 1 then max_int
  else (1 lsl i) - 1

type dist_cell = {
  dc_count : int Atomic.t;
  dc_sum : int Atomic.t;
  dc_min : int Atomic.t;
  dc_max : int Atomic.t;
  dc_buckets : int Atomic.t array;  (* length num_buckets *)
}

type distribution = {
  d_name : string;
  d_cells : dist_cell array option Atomic.t;
}

type dist_summary = {
  d_count : int;
  d_sum : int;
  d_min : int;
  d_max : int;
}

let dist_registry : distribution list Atomic.t = Atomic.make []

let find_distribution name =
  List.find_opt
    (fun d -> String.equal d.d_name name)
    (Atomic.get dist_registry)

let fresh_dist_cell () =
  {
    dc_count = Atomic.make 0;
    dc_sum = Atomic.make 0;
    dc_min = Atomic.make max_int;
    dc_max = Atomic.make min_int;
    dc_buckets = Array.init num_buckets (fun _ -> Atomic.make 0);
  }

(* lint: allow R7 lock-free registry insert, retried only on a racing
   registration by another domain *)
let rec distribution name =
  match find_distribution name with
  | Some d -> d
  | None ->
    let d =
      { d_name = name; d_cells = Atomic.make None }
    in
    let old = Atomic.get dist_registry in
    if
      List.exists (fun d' -> String.equal d'.d_name name) old
      || not (Atomic.compare_and_set dist_registry old (d :: old))
    then distribution name
    else d

let fresh_dist_cells () = Array.init num_stripes (fun _ -> fresh_dist_cell ())

let observe d v =
  if enabled () then begin
    let cell = (materialise d.d_cells fresh_dist_cells).(stripe ()) in
    ignore (Atomic.fetch_and_add cell.dc_count 1);
    ignore (Atomic.fetch_and_add cell.dc_sum v);
    atomic_min cell.dc_min v;
    atomic_max cell.dc_max v;
    ignore (Atomic.fetch_and_add cell.dc_buckets.(bucket_of v) 1)
  end

let distribution_value d =
  Array.fold_left
    (fun acc cell ->
       {
         d_count = acc.d_count + Atomic.get cell.dc_count;
         d_sum = acc.d_sum + Atomic.get cell.dc_sum;
         d_min = min acc.d_min (Atomic.get cell.dc_min);
         d_max = max acc.d_max (Atomic.get cell.dc_max);
       })
    { d_count = 0; d_sum = 0; d_min = max_int; d_max = min_int }
    (written d.d_cells)

let distribution_buckets d =
  let out = Array.make num_buckets 0 in
  Array.iter
    (fun cell ->
       Array.iteri
         (fun i b -> out.(i) <- out.(i) + Atomic.get b)
         cell.dc_buckets)
    (written d.d_cells);
  out

let quantile d q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Obs.quantile: q must lie in [0, 1]";
  let buckets = distribution_buckets d in
  let total = Array.fold_left ( + ) 0 buckets in
  if total = 0 then None
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let observed_max = (distribution_value d).d_max in
    let rec walk i seen =
      if i >= num_buckets then Some observed_max
      else
        let seen = seen + buckets.(i) in
        if seen >= rank then Some (min (bucket_upper i) observed_max)
        else walk (i + 1) seen
    in
    walk 0 0
  end

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let now_ns () = Monotonic_clock.now ()

let epoch_ns = Monotonic_clock.now ()

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, Int64.sub (now_ns ()) t0)

(* ------------------------------------------------------------------ *)
(* Scopes: which engine entry point is this domain running for?        *)
(* ------------------------------------------------------------------ *)

(* The driver domain keeps a precise per-domain stack (nested
   budgeted entries see the innermost name); worker domains spawned
   mid-entry fall back to the last entry any domain opened.  The
   fallback is deliberately best-effort — it exists so a budget
   tripping on a worker still journals the engine it was serving. *)
let scope_stack : string list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let last_scope = Atomic.make ""

let current_scope () =
  match Domain.DLS.get scope_stack with
  | s :: _ -> s
  | [] -> Atomic.get last_scope

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span_stat = {
  ss_path : string;
  ss_count : int Atomic.t;
  ss_total : int Atomic.t;
  ss_max : int Atomic.t;
  ss_minor : int Atomic.t;  (* Gc minor words allocated under the span *)
  ss_major : int Atomic.t;  (* Gc major words allocated under the span *)
  ss_promoted : int Atomic.t;
}

type span_summary = {
  s_path : string;
  s_count : int;
  s_total_ns : int;
  s_max_ns : int;
  s_minor_words : int;
  s_major_words : int;
  s_promoted_words : int;
}

let span_stats : span_stat list Atomic.t = Atomic.make []

let find_span_stat path =
  List.find_opt
    (fun s -> String.equal s.ss_path path)
    (Atomic.get span_stats)

(* lint: allow R7 lock-free CAS retry, bounded by contending domains *)
let rec span_stat path =
  match find_span_stat path with
  | Some s -> s
  | None ->
    let s =
      {
        ss_path = path;
        ss_count = Atomic.make 0;
        ss_total = Atomic.make 0;
        ss_max = Atomic.make 0;
        ss_minor = Atomic.make 0;
        ss_major = Atomic.make 0;
        ss_promoted = Atomic.make 0;
      }
    in
    let old = Atomic.get span_stats in
    if
      List.exists (fun s' -> String.equal s'.ss_path path) old
      || not (Atomic.compare_and_set span_stats old (s :: old))
    then span_stat path
    else s

(* Per-domain stack of open span paths: nesting without shared state. *)
let span_stack : string list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

type event = {
  ev_name : string;
  ev_ts : int64;  (* absolute monotonic ns *)
  ev_dur : int64;
  ev_tid : int;
  ev_attrs : (string * string) list;
}

let events : event list Atomic.t = Atomic.make []

(* lint: allow R7 lock-free CAS retry, bounded by contending domains *)
let rec push_event e =
  let old = Atomic.get events in
  if not (Atomic.compare_and_set events old (e :: old)) then push_event e

(* [Gc.quick_stat] reads the calling domain's allocation counters
   without walking the heap, so sampling it per span is cheap.  The
   words are per-domain cumulative floats; the span attributes the
   delta across its body. *)
let alloc_words () =
  let st = Gc.quick_stat () in
  ( int_of_float st.Gc.minor_words,
    int_of_float st.Gc.major_words,
    int_of_float st.Gc.promoted_words )

let record_span path dur_ns =
  let s = span_stat path in
  let dur = Int64.to_int dur_ns in
  ignore (Atomic.fetch_and_add s.ss_count 1);
  ignore (Atomic.fetch_and_add s.ss_total dur);
  atomic_max s.ss_max dur;
  s

let span ?(attrs = []) name f =
  if not (enabled ()) then f ()
  else begin
    let stack = Domain.DLS.get span_stack in
    let path =
      match stack with [] -> name | parent :: _ -> parent ^ "/" ^ name
    in
    Domain.DLS.set span_stack (path :: stack);
    let alloc = alloc_profiling () in
    let a_minor, a_major, a_promoted =
      if alloc then alloc_words () else (0, 0, 0)
    in
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Int64.sub (now_ns ()) t0 in
        Domain.DLS.set span_stack stack;
        let s = record_span path dur in
        if alloc then begin
          let b_minor, b_major, b_promoted = alloc_words () in
          ignore (Atomic.fetch_and_add s.ss_minor (b_minor - a_minor));
          ignore (Atomic.fetch_and_add s.ss_major (b_major - a_major));
          ignore (Atomic.fetch_and_add s.ss_promoted (b_promoted - a_promoted))
        end;
        if tracing () then
          push_event
            {
              ev_name = name;
              ev_ts = t0;
              ev_dur = dur;
              ev_tid = (Domain.self () :> int);
              ev_attrs = attrs;
            })
      f
  end

let span_summaries () =
  List.sort
    (fun a b -> String.compare a.s_path b.s_path)
    (List.filter_map
       (fun s ->
          let count = Atomic.get s.ss_count in
          if count = 0 then None
          else
            Some
              {
                s_path = s.ss_path;
                s_count = count;
                s_total_ns = Atomic.get s.ss_total;
                s_max_ns = Atomic.get s.ss_max;
                s_minor_words = Atomic.get s.ss_minor;
                s_major_words = Atomic.get s.ss_major;
                s_promoted_words = Atomic.get s.ss_promoted;
              })
       (Atomic.get span_stats))

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Every [*_budgeted] engine surface runs under [entry_point]: it
   names the scope for the flight recorder (so a budget tripping
   anywhere below journals which engine it interrupted) and feeds the
   per-entry wall-time histogram [entry.<name>.wall_ns]. *)
let entry_point name f =
  if not (enabled () || journal_on ()) then f ()
  else begin
    let stack = Domain.DLS.get scope_stack in
    Domain.DLS.set scope_stack (name :: stack);
    Atomic.set last_scope name;
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set scope_stack stack;
        (match stack with
         | parent :: _ -> Atomic.set last_scope parent
         | [] -> ());
        if enabled () then
          observe
            (distribution ("entry." ^ name ^ ".wall_ns"))
            (Int64.to_int (Int64.sub (now_ns ()) t0)))
      f
  end

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

type severity = Debug | Info | Warn | Error

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type journal_entry = {
  j_ts_ns : int64;  (* monotonic, relative to process start *)
  j_severity : severity;
  j_tid : int;
  j_component : string;
  j_msg : string;
  j_attrs : (string * string) list;
}

(* One bounded ring per stripe: a fetch-and-add write cursor and a
   fixed array of slots.  A write builds an immutable entry and
   publishes it with one [Atomic.set], so readers never see a torn
   event — at worst a wrapped ring has dropped the oldest ones, which
   is the point of a flight recorder.  The stripes are created by the
   first entry written ([materialise]), so a process that never arms
   the journal never allocates them. *)
let journal_capacity = 256

type journal_stripe = {
  js_next : int Atomic.t;
  js_slots : journal_entry option Atomic.t array;
}

let journal_ring : journal_stripe array option Atomic.t = Atomic.make None

let fresh_journal_ring () =
  Array.init num_stripes (fun _ ->
      {
        js_next = Atomic.make 0;
        js_slots = Array.init journal_capacity (fun _ -> Atomic.make None);
      })

let journal ?(severity = Info) ?(attrs = []) ?component msg =
  if journal_on () then begin
    let comp =
      match component with Some c -> c | None -> current_scope ()
    in
    let st = (materialise journal_ring fresh_journal_ring).(stripe ()) in
    let i = Atomic.fetch_and_add st.js_next 1 in
    Atomic.set
      st.js_slots.(i mod journal_capacity)
      (Some
         {
           j_ts_ns = Int64.sub (now_ns ()) epoch_ns;
           j_severity = severity;
           j_tid = (Domain.self () :> int);
           j_component = comp;
           j_msg = msg;
           j_attrs = attrs;
         })
  end

let journal_entries () =
  let collected =
    Array.fold_left
      (fun acc st ->
         Array.fold_left
           (fun acc slot ->
              match Atomic.get slot with
              | None -> acc
              | Some e -> e :: acc)
           acc st.js_slots)
      [] (written journal_ring)
  in
  List.sort
    (fun a b ->
       match Int64.compare a.j_ts_ns b.j_ts_ns with
       | 0 -> Int.compare a.j_tid b.j_tid
       | c -> c)
    collected

let add_journal_line buf e =
  Buffer.add_string buf "{\"ts_ns\":";
  Buffer.add_string buf (Int64.to_string e.j_ts_ns);
  Buffer.add_string buf ",\"sev\":";
  Strict_json.add_string buf (severity_to_string e.j_severity);
  Buffer.add_string buf ",\"tid\":";
  Buffer.add_string buf (string_of_int e.j_tid);
  Buffer.add_string buf ",\"comp\":";
  Strict_json.add_string buf e.j_component;
  Buffer.add_string buf ",\"msg\":";
  Strict_json.add_string buf e.j_msg;
  Buffer.add_string buf ",\"attrs\":{";
  List.iteri
    (fun i (k, v) ->
       if i > 0 then Buffer.add_char buf ',';
       Strict_json.add_string buf k;
       Buffer.add_char buf ':';
       Strict_json.add_string buf v)
    e.j_attrs;
  Buffer.add_string buf "}}\n"

let journal_jsonl () =
  let buf = Buffer.create 4096 in
  List.iter (add_journal_line buf) (journal_entries ());
  Buffer.contents buf

(* Autodump: lib/robust calls [journal_dump ~trigger] when a budget
   trips or a fault fires, so every degraded/exhausted outcome leaves
   a postmortem JSONL trail without the caller asking for one. *)
let journal_dump_path : string option Atomic.t = Atomic.make None

let set_journal_dump path = Atomic.set journal_dump_path path

let journal_dump ~trigger () =
  if journal_on () then
    match Atomic.get journal_dump_path with
    | None -> ()
    | Some file -> (
      journal ~severity:Error
        ~attrs:[ ("trigger", trigger) ]
        "journal.dump";
      (* A dump fires on already-degraded paths: an unwritable dump
         file must not turn a sound degraded answer into a crash. *)
      match
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (journal_jsonl ()))
      with
      | () -> ()
      | exception Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Reading and resetting                                               *)
(* ------------------------------------------------------------------ *)

let counters () =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map
       (fun c -> (c.c_name, counter_value c))
       (Atomic.get counter_registry))

let distributions () =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map
       (fun d -> (d.d_name, distribution_value d))
       (Atomic.get dist_registry))

(* Written cells are zeroed in place, never dropped: a domain still
   holding a stripe array keeps writing into the registered one. *)
let reset ?(keep_trace = false) () =
  List.iter (fun c -> zero_cells (written c.c_cells))
    (Atomic.get counter_registry);
  List.iter
    (fun d ->
       Array.iter
         (fun cell ->
            Atomic.set cell.dc_count 0;
            Atomic.set cell.dc_sum 0;
            Atomic.set cell.dc_min max_int;
            Atomic.set cell.dc_max min_int;
            zero_cells cell.dc_buckets)
         (written d.d_cells))
    (Atomic.get dist_registry);
  Atomic.set span_stats [];
  Array.iter
    (fun st ->
       Atomic.set st.js_next 0;
       Array.iter (fun slot -> Atomic.set slot None) st.js_slots)
    (written journal_ring);
  if not keep_trace then Atomic.set events []

(* ------------------------------------------------------------------ *)
(* Trace export (Chrome trace_event JSON)                              *)
(* ------------------------------------------------------------------ *)

let add_json_string = Strict_json.add_string

(* Microseconds relative to process start, with sub-us precision kept
   as a decimal fraction (trace_event timestamps are us floats). *)
let add_us buf ns =
  let rel = Int64.sub ns epoch_ns in
  Buffer.add_string buf
    (Printf.sprintf "%Ld.%03Ld" (Int64.div rel 1000L)
       (Int64.rem (Int64.abs rel) 1000L))

let add_event buf e =
  Buffer.add_string buf "{\"name\":";
  add_json_string buf e.ev_name;
  Buffer.add_string buf ",\"cat\":\"wlcq\",\"ph\":\"X\",\"ts\":";
  add_us buf e.ev_ts;
  Buffer.add_string buf ",\"dur\":";
  Buffer.add_string buf
    (Printf.sprintf "%Ld.%03Ld" (Int64.div e.ev_dur 1000L)
       (Int64.rem e.ev_dur 1000L));
  Buffer.add_string buf ",\"pid\":1,\"tid\":";
  Buffer.add_string buf (string_of_int e.ev_tid);
  Buffer.add_string buf ",\"args\":{";
  List.iteri
    (fun i (k, v) ->
       if i > 0 then Buffer.add_char buf ',';
       add_json_string buf k;
       Buffer.add_char buf ':';
       add_json_string buf v)
    e.ev_attrs;
  Buffer.add_string buf "}}"

(* Deterministic order across domains: timestamp, then recording
   domain, then name — two runs that do the same work in a different
   domain interleaving (forced-par vs forced-seq) export events in
   the same order, so traces diff structurally. *)
let trace_json () =
  let evs =
    List.sort
      (fun a b ->
         match Int64.compare a.ev_ts b.ev_ts with
         | 0 -> (
           match Int.compare a.ev_tid b.ev_tid with
           | 0 -> String.compare a.ev_name b.ev_name
           | c -> c)
         | c -> c)
      (Atomic.get events)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i e ->
       if i > 0 then Buffer.add_string buf ",\n";
       add_event buf e)
    evs;
  Buffer.add_string buf "]\n";
  Buffer.contents buf

(* The strict acceptor lives in [Wlcq_strictjson.Strict_json] so
   wlcq-lint's --json mode validates against the same grammar; this
   alias keeps the historical Obs entry point. *)
let json_parseable = Strict_json.parseable

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let span_report () =
  let sums = span_summaries () in
  let with_alloc =
    List.exists
      (fun s ->
         s.s_minor_words <> 0 || s.s_major_words <> 0
         || s.s_promoted_words <> 0)
      sums
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun s ->
       let depth =
         String.fold_left
           (fun acc c -> if Char.equal c '/' then acc + 1 else acc)
           0 s.s_path
       in
       let label =
         match String.rindex_opt s.s_path '/' with
         | None -> s.s_path
         | Some i ->
           String.sub s.s_path (i + 1) (String.length s.s_path - i - 1)
       in
       Buffer.add_string buf
         (Printf.sprintf "%-44s %8d %12.3f ms %10.3f ms"
            (String.make (2 * depth) ' ' ^ label)
            s.s_count
            (float_of_int s.s_total_ns /. 1e6)
            (float_of_int s.s_max_ns /. 1e6));
       if with_alloc then
         Buffer.add_string buf
           (Printf.sprintf " %10dw %10dw %8dw" s.s_minor_words
              s.s_major_words s.s_promoted_words);
       Buffer.add_char buf '\n')
    sums;
  Buffer.contents buf

(* Collapsed-stack (folded) export: one line per span path with its
   *self* weight — total minus the direct children — so the output
   feeds flamegraph.pl / speedscope / inferno directly. *)
let folded ?(weight = `Time_ns) () =
  let sums = span_summaries () in
  let w s =
    match weight with
    | `Time_ns -> s.s_total_ns
    | `Alloc_words -> s.s_minor_words + s.s_major_words
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun s ->
       let prefix = s.s_path ^ "/" in
       let children =
         List.fold_left
           (fun acc c ->
              if
                String.length c.s_path > String.length prefix
                && String.starts_with ~prefix c.s_path
                && Option.is_none
                     (String.index_from_opt c.s_path (String.length prefix)
                        '/')
              then acc + w c
              else acc)
           0 sums
       in
       let self = max 0 (w s - children) in
       if self > 0 then begin
         Buffer.add_string buf
           (String.map (fun c -> if Char.equal c '/' then ';' else c) s.s_path);
         Buffer.add_char buf ' ';
         Buffer.add_string buf (string_of_int self);
         Buffer.add_char buf '\n'
       end)
    sums;
  Buffer.contents buf

let metrics_table () =
  let buf = Buffer.create 1024 in
  let live_counters =
    List.filter (fun (_, v) -> v <> 0) (counters ())
  in
  if not (List.is_empty live_counters) then begin
    Buffer.add_string buf
      (Printf.sprintf "%-44s %12s\n" "counter" "value");
    List.iter
      (fun (name, v) ->
         Buffer.add_string buf (Printf.sprintf "%-44s %12d\n" name v))
      live_counters
  end;
  let live_dists =
    List.filter (fun (_, s) -> s.d_count > 0) (distributions ())
  in
  if not (List.is_empty live_dists) then begin
    Buffer.add_string buf
      (Printf.sprintf "%-44s %8s %12s %8s %8s %8s %8s\n" "distribution"
         "count" "sum" "min" "max" "p50" "p99");
    List.iter
      (fun (name, s) ->
         let quant q =
           match find_distribution name with
           | None -> "-"
           | Some d -> (
             match quantile d q with
             | None -> "-"
             | Some v -> string_of_int v)
         in
         Buffer.add_string buf
           (Printf.sprintf "%-44s %8d %12d %8d %8d %8s %8s\n" name s.d_count
              s.d_sum s.d_min s.d_max (quant 0.5) (quant 0.99)))
      live_dists
  end;
  let spans = span_report () in
  if not (String.equal spans "") then begin
    Buffer.add_string buf
      (Printf.sprintf "%-44s %8s %15s %13s\n" "span" "count" "total" "max");
    Buffer.add_string buf spans
  end;
  if Buffer.length buf = 0 then Buffer.add_string buf "(no metrics recorded)\n";
  Buffer.contents buf

let report_hit_rate ~hits ~misses =
  match (find_counter hits, find_counter misses) with
  | Some h, Some m ->
    let th = counter_value h and tm = counter_value m in
    if th + tm = 0 then None
    else Some (float_of_int th /. float_of_int (th + tm))
  | _ -> None
