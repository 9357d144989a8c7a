open Wlcq_graph
module Obs = Wlcq_obs.Obs
module Snapshot = Wlcq_obs.Snapshot
module Kwl = Wlcq_wl.Kwl

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* All tests share the global registry; each starts from a clean,
   enabled slate and leaves recording off. *)
let with_obs ?(tracing = false) f =
  Obs.reset ();
  Obs.set_enabled true;
  Obs.set_tracing tracing;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_tracing false;
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Counters and distributions                                          *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  with_obs (fun () ->
      let c = Obs.counter "test.basics" in
      check_int "fresh counter is zero" 0 (Obs.counter_value c);
      Obs.incr c;
      Obs.add c 41;
      check_int "incr + add" 42 (Obs.counter_value c);
      (* registration is idempotent: same handle, same cells *)
      let c' = Obs.counter "test.basics" in
      Obs.incr c';
      check_int "second handle shares the cells" 43 (Obs.counter_value c);
      check_bool "find_counter finds it" true
        (match Obs.find_counter "test.basics" with
         | Some c'' -> Obs.counter_value c'' = 43
         | None -> false);
      check_bool "find_counter does not register" true
        (Option.is_none (Obs.find_counter "test.never_registered")))

let test_disabled_is_noop () =
  with_obs (fun () ->
      let c = Obs.counter "test.noop" in
      let d = Obs.distribution "test.noop_dist" in
      Obs.set_enabled false;
      Obs.incr c;
      Obs.add c 10;
      Obs.observe d 7;
      ignore (Obs.span "test.noop_span" (fun () -> 0));
      Obs.set_enabled true;
      check_int "disabled incr/add recorded nothing" 0 (Obs.counter_value c);
      check_int "disabled observe recorded nothing" 0
        (Obs.distribution_value d).Obs.d_count;
      check_bool "disabled span recorded nothing" true
        (List.for_all
           (fun (s : Obs.span_summary) ->
              not (String.equal s.Obs.s_path "test.noop_span"))
           (Obs.span_summaries ())))

let test_distribution_summary () =
  with_obs (fun () ->
      let d = Obs.distribution "test.dist" in
      List.iter (Obs.observe d) [ 5; -3; 12; 0 ];
      let s = Obs.distribution_value d in
      check_int "count" 4 s.Obs.d_count;
      check_int "sum" 14 s.Obs.d_sum;
      check_int "min" (-3) s.Obs.d_min;
      check_int "max" 12 s.Obs.d_max)

let test_reset_semantics () =
  with_obs ~tracing:true (fun () ->
      let c = Obs.counter "test.reset" in
      Obs.incr c;
      ignore (Obs.span "test.reset_span" (fun () -> 0));
      check_bool "trace has events before reset" true
        (String.length (Obs.trace_json ()) > 2);
      Obs.reset ~keep_trace:true ();
      check_int "reset zeroes the counter" 0 (Obs.counter_value c);
      check_bool "keep_trace preserves the trace log" true
        (String.length (Obs.trace_json ()) > 2);
      check_bool "reset drops span summaries" true
        (List.is_empty (Obs.span_summaries ()));
      Obs.reset ();
      check_bool "plain reset clears the trace" true
        (String.equal (Obs.trace_json ()) "[]"
         || String.length (Obs.trace_json ()) <= 3))

let test_hit_rate () =
  with_obs (fun () ->
      let h = Obs.counter "test.hits" in
      let m = Obs.counter "test.misses" in
      check_bool "no events -> None" true
        (Option.is_none
           (Obs.report_hit_rate ~hits:"test.hits" ~misses:"test.misses"));
      check_bool "unregistered -> None" true
        (Option.is_none
           (Obs.report_hit_rate ~hits:"test.nope" ~misses:"test.misses"));
      Obs.add h 3;
      Obs.add m 1;
      match Obs.report_hit_rate ~hits:"test.hits" ~misses:"test.misses" with
      | Some r -> check_bool "3/(3+1)" true (Float.abs (r -. 0.75) < 1e-9)
      | None -> Alcotest.fail "expected Some rate")

let mentions needle s =
  let n = String.length needle and h = String.length s in
  let rec go i =
    i + n <= h && (String.equal (String.sub s i n) needle || go (i + 1))
  in
  go 0

(* A metric's stripes are created by its first write.  Until then
   every reader treats the missing cells as zeros, a reset leaves the
   metric registered, and the renderers skip it as they skip any
   metric that reads zero. *)
let test_unwritten_metrics () =
  with_obs (fun () ->
      let c = Obs.counter "test.unwritten.counter" in
      let d = Obs.distribution "test.unwritten.dist" in
      let reads_zero phase =
        check_int (phase ^ ": counter") 0 (Obs.counter_value c);
        let s = Obs.distribution_value d in
        check_int (phase ^ ": count") 0 s.Obs.d_count;
        check_int (phase ^ ": sum") 0 s.Obs.d_sum;
        check_bool (phase ^ ": min and max are the empty sentinels") true
          (s.Obs.d_min = max_int && s.Obs.d_max = min_int);
        check_bool (phase ^ ": no quantile") true
          (Option.is_none (Obs.quantile d 0.5));
        check_bool (phase ^ ": empty buckets") true
          (Array.for_all (fun n -> n = 0) (Obs.distribution_buckets d));
        check_bool (phase ^ ": counters () lists it at 0") true
          (List.mem ("test.unwritten.counter", 0) (Obs.counters ()));
        check_bool (phase ^ ": distributions () lists it") true
          (List.mem_assoc "test.unwritten.dist" (Obs.distributions ()))
      in
      reads_zero "registered";
      Obs.reset ();
      reads_zero "after reset";
      let snap = Snapshot.capture () in
      check_bool "snapshot skips the unwritten counter" false
        (List.mem_assoc "wlcq_test_unwritten_counter" snap.Snapshot.s_counters);
      check_bool "snapshot skips the unwritten distribution" false
        (List.mem_assoc "wlcq_test_unwritten_dist" snap.Snapshot.s_hists);
      check_bool "snapshot renders and parses back" true
        (Result.is_ok (Snapshot.parse (Snapshot.render snap)));
      check_bool "metrics table skips them" false
        (mentions "test.unwritten" (Obs.metrics_table ()));
      (* the first write creates the cells, and everything sees them *)
      Obs.add c 5;
      Obs.observe d 9;
      check_int "first add" 5 (Obs.counter_value c);
      check_bool "first observe" true
        (Option.equal Int.equal (Obs.quantile d 0.5) (Some 9));
      let snap = Snapshot.capture () in
      check_bool "snapshot carries the counter" true
        (Option.equal Int.equal
           (List.assoc_opt "wlcq_test_unwritten_counter"
              snap.Snapshot.s_counters)
           (Some 5));
      check_bool "snapshot carries the distribution" true
        (List.mem_assoc "wlcq_test_unwritten_dist" snap.Snapshot.s_hists);
      let table = Obs.metrics_table () in
      check_bool "metrics table shows both" true
        (mentions "test.unwritten.counter" table
         && mentions "test.unwritten.dist" table);
      Obs.reset ();
      reads_zero "after a reset of written cells")

(* ------------------------------------------------------------------ *)
(* Concurrency: striped counters under Domain.spawn                    *)
(* ------------------------------------------------------------------ *)

(* Four domains race the first write to a fresh counter and a fresh
   distribution: one CAS publishes each stripe array and a loser
   adopts the winner's, so no write is lost.  A race is won or lost
   within a microsecond, so it is rerun on fresh metrics; a plain
   store in place of the CAS loses writes in most rounds.  The first
   round also races the journal ring's creation (this case runs before
   any other in the binary arms the journal): every entry reads back,
   since 64 entries per domain cannot fill a 256-slot stripe even if
   all four share one. *)
let race_first_writes ~round ~journal =
  let c = Obs.counter (Printf.sprintf "test.race.%d.counter" round) in
  let d = Obs.distribution (Printf.sprintf "test.race.%d.dist" round) in
  let domains = 4 and per_domain = 64 in
  let ready = Atomic.make 0 in
  let workers =
    List.init domains (fun w ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < domains do
              Domain.cpu_relax ()
            done;
            for i = 1 to per_domain do
              Obs.incr c;
              Obs.observe d i;
              if journal then
                Obs.journal
                  ~attrs:
                    [ ("writer", string_of_int w); ("i", string_of_int i) ]
                  "test.race"
            done))
  in
  List.iter Domain.join workers;
  let total = domains * per_domain in
  let name what = Printf.sprintf "round %d: %s" round what in
  check_int (name "counter total") total (Obs.counter_value c);
  let s = Obs.distribution_value d in
  check_int (name "observations") total s.Obs.d_count;
  check_int (name "sum") (domains * (per_domain * (per_domain + 1) / 2))
    s.Obs.d_sum;
  check_int (name "min") 1 s.Obs.d_min;
  check_int (name "max") per_domain s.Obs.d_max;
  check_int (name "bucketed observations") total
    (Array.fold_left ( + ) 0 (Obs.distribution_buckets d));
  if journal then begin
    let entries = Obs.journal_entries () in
    List.iter
      (fun w ->
         let is =
           List.filter_map
             (fun e ->
                match e.Obs.j_attrs with
                | [ ("writer", w'); ("i", i) ]
                  when String.equal w' (string_of_int w) ->
                  Some (int_of_string i)
                | _ -> None)
             entries
         in
         check_bool
           (Printf.sprintf "writer %d's entries all read back" w)
           true
           (List.equal Int.equal (List.sort Int.compare is)
              (List.init per_domain succ)))
      (List.init domains Fun.id)
  end

let test_first_write_race () =
  with_obs (fun () ->
      Obs.set_journal true;
      Fun.protect
        ~finally:(fun () -> Obs.set_journal false)
        (fun () -> race_first_writes ~round:0 ~journal:true);
      for round = 1 to 100 do
        race_first_writes ~round ~journal:false
      done)

let concurrent_sum_exact num_domains per_domain =
  Obs.reset ();
  Obs.set_enabled true;
  let c = Obs.counter "test.concurrent" in
  let workers =
    List.init num_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.incr c
            done))
  in
  List.iter Domain.join workers;
  let v = Obs.counter_value c in
  Obs.set_enabled false;
  Obs.reset ();
  v = num_domains * per_domain

let obs_qcheck =
  [
    QCheck.Test.make
      ~name:"concurrent increments from N domains sum exactly" ~count:25
      QCheck.(pair (int_range 1 6) (int_range 0 400))
      (fun (num_domains, per_domain) ->
         concurrent_sum_exact num_domains per_domain);
  ]

(* ------------------------------------------------------------------ *)
(* Spans, nesting and the trace exporter                               *)
(* ------------------------------------------------------------------ *)

let span_count path =
  match
    List.find_opt
      (fun (s : Obs.span_summary) -> String.equal s.Obs.s_path path)
      (Obs.span_summaries ())
  with
  | Some s -> s.Obs.s_count
  | None -> 0

let test_span_nesting () =
  with_obs (fun () ->
      let r =
        Obs.span "outer" (fun () ->
            let a = Obs.span "inner" (fun () -> 20) in
            let b = Obs.span "inner" (fun () -> 22) in
            a + b)
      in
      check_int "span passes the result through" 42 r;
      check_int "outer recorded once" 1 (span_count "outer");
      check_int "nested path aggregates both calls" 2
        (span_count "outer/inner");
      check_int "no bare 'inner' path" 0 (span_count "inner"))

let test_span_exception_safety () =
  with_obs (fun () ->
      (try
         Obs.span "outer" (fun () ->
             ignore
               (Obs.span "boom" (fun () ->
                    failwith "Test_obs.span_exception_safety: boom")))
       with Failure _ -> ());
      check_int "raising span still recorded" 1 (span_count "outer/boom");
      check_int "parent recorded despite child raising" 1 (span_count "outer");
      (* the nesting stack must have been unwound *)
      ignore (Obs.span "after" (fun () -> ()));
      check_int "stack unwound: no outer/after" 1 (span_count "after"))

let test_trace_json_well_formed () =
  with_obs ~tracing:true (fun () ->
      ignore
        (Obs.span "outer" ~attrs:[ ("k", "2"); ("graph", "C6") ] (fun () ->
             Obs.span "inner" (fun () -> 7)));
      let j = Obs.trace_json () in
      check_bool "trace parses as JSON" true (Obs.json_parseable j);
      check_bool "trace is an array" true
        (String.length j >= 2 && j.[0] = '[');
      let contains needle =
        let n = String.length needle and h = String.length j in
        let rec go i =
          i + n <= h && (String.equal (String.sub j i n) needle || go (i + 1))
        in
        go 0
      in
      check_bool "complete-event phase present" true
        (contains "\"ph\": \"X\"" || contains "\"ph\":\"X\"");
      check_bool "attrs exported" true (contains "\"graph\""))

let test_json_acceptor_rejects_garbage () =
  check_bool "accepts object" true
    (Obs.json_parseable "{\"a\": [1, 2.5e1, true, null, \"s\"]}");
  check_bool "accepts empty array" true (Obs.json_parseable "[]");
  List.iter
    (fun s ->
       check_bool (Printf.sprintf "rejects %S" s) false (Obs.json_parseable s))
    [ ""; "{"; "[1,]"; "[] trailing"; "{\"a\": }"; "nul"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Histogram buckets and quantiles                                     *)
(* ------------------------------------------------------------------ *)

let test_bucket_geometry () =
  check_int "v <= 0 lands in bucket 0" 0 (Obs.bucket_of 0);
  check_int "negative lands in bucket 0" 0 (Obs.bucket_of (-7));
  check_int "1 lands in bucket 1" 1 (Obs.bucket_of 1);
  check_int "2..3 land in bucket 2" 2 (Obs.bucket_of 3);
  check_int "bucket 0 upper" 0 (Obs.bucket_upper 0);
  check_int "bucket 2 upper" 3 (Obs.bucket_upper 2);
  check_int "last bucket holds max_int" (Obs.num_buckets - 1)
    (Obs.bucket_of max_int);
  check_int "last bucket upper is max_int" max_int
    (Obs.bucket_upper (Obs.num_buckets - 1));
  (* every v sits within its bucket's bounds *)
  List.iter
    (fun v ->
       let b = Obs.bucket_of v in
       check_bool "v <= upper(bucket_of v)" true (v <= Obs.bucket_upper b);
       check_bool "v > upper(bucket_of v - 1)" true
         (b = 0 || v > Obs.bucket_upper (b - 1)))
    [ 1; 2; 4; 5; 100; 1023; 1024; 123_456_789 ]

let test_quantile_empty_and_bounds () =
  with_obs (fun () ->
      let d = Obs.distribution "test.q_empty" in
      check_bool "empty distribution -> None" true
        (Option.is_none (Obs.quantile d 0.5));
      check_bool "q out of range raises" true
        (try
           ignore (Obs.quantile d 1.5);
           false
         with Invalid_argument _ -> true);
      Obs.observe d 100;
      check_bool "single value: p50 covers it within a bucket" true
        (match Obs.quantile d 0.5 with
         | Some e -> e >= 100 && e < 200
         | None -> false))

(* The documented contract: for a true positive quantile [t], the
   histogram estimate [e] satisfies [t <= e < 2t] (and is clamped to
   the observed maximum). *)
let quantile_within_one_bucket (values, q) =
  match values with
  | [] -> true
  | _ ->
    Obs.reset ();
    Obs.set_enabled true;
    let d = Obs.distribution "test.q_prop" in
    List.iter (Obs.observe d) values;
    let sorted = Array.of_list (List.sort Int.compare values) in
    let n = Array.length sorted in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    let t = sorted.(rank - 1) in
    let vmax = List.fold_left max min_int values in
    let ok =
      match Obs.quantile d q with
      | None -> false
      | Some e -> t <= e && e < 2 * t && e <= vmax
    in
    Obs.set_enabled false;
    Obs.reset ();
    ok

let quantile_qcheck =
  [
    QCheck.Test.make
      ~name:"histogram quantile is within one log2 bucket of the truth"
      ~count:200
      QCheck.(
        pair
          (list_of_size Gen.(int_range 1 60) (int_range 1 100_000))
          (float_range 0.01 1.0))
      quantile_within_one_bucket;
  ]

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let with_journal f =
  Obs.reset ();
  Obs.set_journal true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_journal false;
      Obs.reset ())
    f

let test_journal_off_by_default () =
  Obs.reset ();
  check_bool "journal off by default" false (Obs.journal_on ());
  Obs.journal "test.dropped";
  check_bool "disarmed journal records nothing" true
    (List.is_empty (Obs.journal_entries ()))

let test_journal_basics () =
  with_journal (fun () ->
      Obs.journal ~severity:Obs.Warn
        ~attrs:[ ("reason", "deadline"); ("n", "3") ]
        ~component:"test.engine" "test.event";
      Obs.journal "test.second";
      match Obs.journal_entries () with
      | [ e1; e2 ] ->
        check_str "msg" "test.event" e1.Obs.j_msg;
        check_str "component" "test.engine" e1.Obs.j_component;
        check_bool "severity" true
          (match e1.Obs.j_severity with Obs.Warn -> true | _ -> false);
        check_bool "attrs kept in order" true
          (List.equal
             (fun (k, v) (k', v') -> String.equal k k' && String.equal v v')
             e1.Obs.j_attrs
             [ ("reason", "deadline"); ("n", "3") ]);
        check_bool "sorted by timestamp" true
          (Int64.compare e1.Obs.j_ts_ns e2.Obs.j_ts_ns <= 0)
      | es ->
        Alcotest.failf "expected exactly 2 journal entries, got %d"
          (List.length es))

let test_journal_jsonl_parseable () =
  with_journal (fun () ->
      Obs.journal ~attrs:[ ("quote", "a\"b"); ("nl", "x\ny") ]
        "needs \\ escaping";
      Obs.journal ~severity:Obs.Error "second";
      let lines =
        String.split_on_char '\n' (String.trim (Obs.journal_jsonl ()))
      in
      check_int "one line per event" 2 (List.length lines);
      List.iter
        (fun l ->
           check_bool "journal line is strict JSON" true
             (Obs.json_parseable l))
        lines)

let test_journal_ring_bounded () =
  with_journal (fun () ->
      (* all from one domain, so one stripe: the ring must keep only
         the newest [journal_capacity] events *)
      let total = (3 * Obs.journal_capacity) + 5 in
      for i = 1 to total do
        Obs.journal ~attrs:[ ("i", string_of_int i) ] "test.flood"
      done;
      let entries = Obs.journal_entries () in
      check_int "ring bounded at journal_capacity" Obs.journal_capacity
        (List.length entries);
      let seqnos =
        List.map
          (fun e ->
             match e.Obs.j_attrs with
             | [ ("i", v) ] -> int_of_string v
             | _ -> Alcotest.fail "torn attrs on flooded event")
          entries
      in
      check_int "the survivors are the newest events"
        (total - Obs.journal_capacity + 1)
        (List.fold_left min max_int seqnos);
      check_int "...up to the last one" total
        (List.fold_left max min_int seqnos))

let test_journal_dump_writes_file () =
  with_journal (fun () ->
      let file = Filename.temp_file "wlcq_test_journal" ".jsonl" in
      Fun.protect
        ~finally:(fun () ->
          Obs.set_journal_dump None;
          Sys.remove file)
        (fun () ->
          Obs.set_journal_dump (Some file);
          Obs.journal ~component:"test.engine" "before.dump";
          Obs.journal_dump ~trigger:"test" ();
          let contents =
            In_channel.with_open_bin file In_channel.input_all
          in
          let lines = String.split_on_char '\n' (String.trim contents) in
          check_bool "dump has the event plus the dump marker" true
            (List.length lines >= 2);
          List.iter
            (fun l ->
               check_bool "dump line is strict JSON" true
                 (Obs.json_parseable l))
            lines;
          let last =
            match List.rev lines with l :: _ -> l | [] -> ""
          in
          let contains needle s =
            let n = String.length needle and h = String.length s in
            let rec go i =
              i + n <= h
              && (String.equal (String.sub s i n) needle || go (i + 1))
            in
            go 0
          in
          check_bool "last line is the journal.dump marker" true
            (contains "journal.dump" last);
          check_bool "dump names its trigger" true (contains "test" last)))

(* Concurrent writers: no lost ring slots below capacity, no torn
   events, and each domain's events carry its own sequence intact. *)
let concurrent_journal_intact (num_domains, per_domain) =
  Obs.reset ();
  Obs.set_journal true;
  let workers =
    List.init num_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.journal
                ~attrs:
                  [ ("writer", string_of_int d); ("i", string_of_int i) ]
                "test.concurrent"
            done))
  in
  let tids = List.map (fun w -> (Domain.get_id w :> int)) workers in
  List.iter Domain.join workers;
  let entries = Obs.journal_entries () in
  Obs.set_journal false;
  Obs.reset ();
  (* every event is whole: its tid is a spawned writer and its attrs
     parse back to a plausible (writer, i) pair *)
  let whole =
    List.for_all
      (fun e ->
         List.mem e.Obs.j_tid tids
         &&
         match e.Obs.j_attrs with
         | [ ("writer", w); ("i", i) ] ->
           let w = int_of_string w and i = int_of_string i in
           w >= 0 && w < num_domains && i >= 1 && i <= per_domain
         | _ -> false)
      entries
  in
  (* per writer: sequence numbers are distinct (an event is recorded
     at most once, never duplicated by a racing overwrite) *)
  let per_writer_distinct =
    List.for_all
      (fun d ->
         let is =
           List.filter_map
             (fun e ->
                match e.Obs.j_attrs with
                | [ ("writer", w); ("i", i) ]
                  when int_of_string w = d ->
                  Some (int_of_string i)
                | _ -> None)
             entries
         in
         List.length (List.sort_uniq Int.compare is) = List.length is)
      (List.init num_domains Fun.id)
  in
  whole && per_writer_distinct
  && List.length entries <= num_domains * per_domain

let journal_qcheck =
  [
    QCheck.Test.make
      ~name:"concurrent journal writes from N domains stay whole" ~count:15
      QCheck.(pair (int_range 1 6) (int_range 1 64))
      concurrent_journal_intact;
  ]

(* ------------------------------------------------------------------ *)
(* Entry points and scopes                                             *)
(* ------------------------------------------------------------------ *)

let test_entry_point_scope_and_histogram () =
  with_obs (fun () ->
      check_str "no scope outside entries" "" (Obs.current_scope ());
      let r =
        Obs.entry_point "test_engine.count" (fun () ->
            check_str "scope set inside" "test_engine.count"
              (Obs.current_scope ());
            Obs.entry_point "test_engine.inner" (fun () ->
                check_str "innermost entry wins" "test_engine.inner"
                  (Obs.current_scope ()));
            check_str "scope restored after nested exit" "test_engine.count"
              (Obs.current_scope ());
            17)
      in
      check_int "entry_point passes the result through" 17 r;
      check_bool "wall-time histogram observed" true
        (match Obs.find_distribution "entry.test_engine.count.wall_ns" with
         | Some d -> (Obs.distribution_value d).Obs.d_count = 1
         | None -> false))

let test_entry_point_worker_fallback () =
  with_journal (fun () ->
      Obs.entry_point "test_engine.outer" (fun () ->
          let w =
            Domain.spawn (fun () ->
                (* a worker spawned mid-entry inherits the engine scope
                   through the best-effort fallback *)
                Obs.journal "from.worker";
                Obs.current_scope ())
          in
          check_str "worker sees the spawning entry" "test_engine.outer"
            (Domain.join w));
      match
        List.find_opt
          (fun e -> String.equal e.Obs.j_msg "from.worker")
          (Obs.journal_entries ())
      with
      | Some e ->
        check_str "journal component defaulted to the engine scope"
          "test_engine.outer" e.Obs.j_component
      | None -> Alcotest.fail "worker journal event not recorded")

(* ------------------------------------------------------------------ *)
(* Allocation profiling and the folded exporter                        *)
(* ------------------------------------------------------------------ *)

let test_alloc_profiling_attribution () =
  with_obs (fun () ->
      Obs.set_alloc_profiling true;
      Fun.protect
        ~finally:(fun () -> Obs.set_alloc_profiling false)
        (fun () ->
          ignore
            (Obs.span "test.allocating" (fun () ->
                 (* ~100k minor words, comfortably above noise *)
                 let acc = ref [] in
                 for i = 1 to 50_000 do
                   acc := (i, i) :: !acc
                 done;
                 List.length !acc));
          match
            List.find_opt
              (fun (s : Obs.span_summary) ->
                 String.equal s.Obs.s_path "test.allocating")
              (Obs.span_summaries ())
          with
          | Some s ->
            check_bool "minor words attributed" true
              (s.Obs.s_minor_words > 10_000)
          | None -> Alcotest.fail "span summary missing"))

let test_folded_exporter () =
  with_obs (fun () ->
      ignore
        (Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> 1)));
      let folded = Obs.folded () in
      let lines = String.split_on_char '\n' (String.trim folded) in
      check_bool "one line per path" true (List.length lines >= 2);
      List.iter
        (fun l ->
           (* collapsed-stack shape: 'a;b;c <int>' *)
           match String.rindex_opt l ' ' with
           | None -> Alcotest.failf "folded line without weight: %s" l
           | Some i ->
             let w = String.sub l (i + 1) (String.length l - i - 1) in
             check_bool "weight is an integer" true
               (match int_of_string_opt w with
                | Some n -> n >= 0
                | None -> false))
        lines;
      check_bool "nested path uses ; separators" true
        (List.exists
           (fun l ->
              String.length l >= 11
              && String.equal (String.sub l 0 11) "outer;inner")
           lines))

(* ------------------------------------------------------------------ *)
(* Trace determinism (PR 8 satellite: stable sort by (ts, tid, name))  *)
(* ------------------------------------------------------------------ *)

let test_trace_deterministic_across_domains () =
  with_obs ~tracing:true (fun () ->
      let workers =
        List.init 3 (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to 5 do
                  Obs.span (Printf.sprintf "w%d.s%d" d i) (fun () -> ())
                done))
      in
      List.iter Domain.join workers;
      let j1 = Obs.trace_json () in
      let j2 = Obs.trace_json () in
      check_str "two renders are byte-identical" j1 j2;
      check_bool "trace parses" true (Obs.json_parseable j1);
      (* timestamps appear in nondecreasing order *)
      let ts =
        let key = "\"ts\": " in
        let klen = String.length key and len = String.length j1 in
        let rec collect i acc =
          if i + klen > len then List.rev acc
          else if String.equal (String.sub j1 i klen) key then begin
            let j = ref (i + klen) in
            while
              !j < len
              && (match j1.[!j] with '0' .. '9' | '.' -> true | _ -> false)
            do
              incr j
            done;
            collect !j
              (float_of_string (String.sub j1 (i + klen) (!j - i - klen))
               :: acc)
          end
          else collect (i + 1) acc
        in
        collect 0 []
      in
      check_bool "events sorted by timestamp" true
        (fst
           (List.fold_left
              (fun (ok, prev) t -> (ok && t >= prev, t))
              (true, neg_infinity) ts)))

(* ------------------------------------------------------------------ *)
(* Snapshots: OpenMetrics render/parse/diff                            *)
(* ------------------------------------------------------------------ *)

let snapshot_equal (a : Snapshot.t) (b : Snapshot.t) =
  a.Snapshot.s_counters = b.Snapshot.s_counters
  && List.length a.Snapshot.s_hists = List.length b.Snapshot.s_hists
  && List.for_all2
       (fun (n1, h1) (n2, h2) ->
          String.equal n1 n2
          && h1.Snapshot.h_count = h2.Snapshot.h_count
          && h1.Snapshot.h_sum = h2.Snapshot.h_sum
          && h1.Snapshot.h_buckets = h2.Snapshot.h_buckets)
       a.Snapshot.s_hists b.Snapshot.s_hists

let test_snapshot_roundtrip () =
  with_obs (fun () ->
      Obs.add (Obs.counter "test.snap_counter") 42;
      let d = Obs.distribution "test.snap_dist" in
      List.iter (Obs.observe d) [ 1; 5; 9; 1000 ];
      let snap = Snapshot.capture () in
      check_bool "capture saw the counter" true
        (List.mem_assoc "wlcq_test_snap_counter" snap.Snapshot.s_counters);
      let text = Snapshot.render snap in
      check_bool "render ends with EOF marker" true
        (let t = String.trim text in
         String.length t >= 5
         && String.equal (String.sub t (String.length t - 5) 5) "# EOF");
      (match Snapshot.parse text with
       | Ok back ->
         check_bool "parse . render is the identity" true
           (snapshot_equal snap back)
       | Error e -> Alcotest.failf "roundtrip parse failed: %s" e);
      check_bool "parse rejects garbage" true
        (match Snapshot.parse "wlcq_x_total nonsense\n# EOF\n" with
         | Error _ -> true
         | Ok _ -> false))

let test_snapshot_self_diff_clean () =
  with_obs (fun () ->
      Obs.add (Obs.counter "test.snap_counter") 1000;
      let d = Obs.distribution "test.snap_dist" in
      List.iter (Obs.observe d) [ 3; 7; 100; 2000 ];
      let snap = Snapshot.capture () in
      let report, regressions = Snapshot.diff snap snap in
      check_bool "self-diff report non-empty" true
        (String.length report > 0);
      check_int "self-diff has zero regressions" 0
        (List.length regressions))

let test_snapshot_detects_regression () =
  (* handcrafted snapshots: the after histogram's mass moves from the
     <=8 bucket to the <=32 bucket, a 4x p99 shift; the counter grows
     10x over the noise floor *)
  let hist buckets count sum =
    { Snapshot.h_count = count; h_sum = sum; h_buckets = buckets }
  in
  let before =
    {
      Snapshot.s_counters = [ ("wlcq_test_work_total", 100) ];
      s_hists = [ ("wlcq_test_lat_ns", hist [ (8, 10); (max_int, 10) ] 10 60) ];
    }
  in
  let after =
    {
      Snapshot.s_counters = [ ("wlcq_test_work_total", 1000) ];
      s_hists =
        [ ("wlcq_test_lat_ns", hist [ (8, 0); (32, 10); (max_int, 10) ] 10 250) ];
    }
  in
  let _, regressions = Snapshot.diff ~threshold:2.0 before after in
  check_bool "counter regression flagged" true
    (List.exists
       (fun r ->
          String.equal r.Snapshot.r_metric "wlcq_test_work_total"
          && String.equal r.Snapshot.r_what "count")
       regressions);
  check_bool "p99 regression flagged" true
    (List.exists
       (fun r ->
          String.equal r.Snapshot.r_metric "wlcq_test_lat_ns"
          && (String.equal r.Snapshot.r_what "p99"
              || String.equal r.Snapshot.r_what "p50")
          && r.Snapshot.r_ratio >= 2.0)
       regressions);
  (* raising the threshold above the injected shift silences it *)
  let _, quiet = Snapshot.diff ~threshold:20.0 before after in
  check_int "threshold 20x sees nothing" 0 (List.length quiet)

let test_snapshot_rate_mode () =
  (* a daemon that has run 4x longer and done 4x the work is healthy:
     absolute diffing flags it, rate diffing must not *)
  let snap uptime_ns work =
    {
      Snapshot.s_counters =
        [ (Snapshot.uptime_metric, uptime_ns); ("wlcq_test_work_total", work) ];
      s_hists = [];
    }
  in
  let before = snap 1_000_000_000 100 in
  let steady = snap 4_000_000_000 400 in
  let _, absolute = Snapshot.diff ~threshold:2.0 before steady in
  check_bool "absolute diff flags the 4x counter" true
    (List.exists
       (fun r ->
          String.equal r.Snapshot.r_metric "wlcq_test_work_total"
          && String.equal r.Snapshot.r_what "count")
       absolute);
  let report, rated = Snapshot.diff ~threshold:2.0 ~rate:true before steady in
  check_int "rate diff sees a steady 100/s as clean" 0 (List.length rated);
  check_bool "rate report shows per-second figures" true
    (let has_sub needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl
                      && (String.equal (String.sub hay i nl) needle || go (i + 1))
       in
       go 0
     in
     has_sub "/s" report);
  (* a genuine throughput blowup: 100/s -> 500/s over flat wall time *)
  let blowup = snap 2_000_000_000 1000 in
  let _, hot = Snapshot.diff ~threshold:2.0 ~rate:true before blowup in
  check_bool "5x rate increase flagged as a rate regression" true
    (List.exists
       (fun r ->
          String.equal r.Snapshot.r_metric "wlcq_test_work_total"
          && String.equal r.Snapshot.r_what "rate"
          && r.Snapshot.r_ratio >= 4.9)
       hot);
  check_bool "uptime itself never flagged" true
    (not
       (List.exists
          (fun r -> String.equal r.Snapshot.r_metric Snapshot.uptime_metric)
          hot));
  (* a snapshot without the uptime counter degrades to absolute mode *)
  let bare =
    { Snapshot.s_counters = [ ("wlcq_test_work_total", 400) ]; s_hists = [] }
  in
  let note, fallback = Snapshot.diff ~threshold:2.0 ~rate:true before bare in
  check_bool "fallback notes the missing uptime counter" true
    (let has_sub needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl
                      && (String.equal (String.sub hay i nl) needle || go (i + 1))
       in
       go 0
     in
     has_sub "falling back to absolute" note);
  check_bool "fallback flags in absolute terms" true
    (List.exists
       (fun r -> String.equal r.Snapshot.r_what "count")
       fallback);
  (* live captures always carry the synthetic uptime counter *)
  with_obs (fun () ->
      let live = Snapshot.capture () in
      check_bool "capture injects the uptime counter" true
        (List.mem_assoc Snapshot.uptime_metric live.Snapshot.s_counters))

(* ------------------------------------------------------------------ *)
(* Differential: instrumentation must not perturb the engines          *)
(* ------------------------------------------------------------------ *)

let test_kwl_unperturbed_by_instrumentation () =
  let pairs =
    [ (Builders.cycle 6, Builders.two_triangles ());
      (Builders.path 5, Builders.star 4) ]
  in
  List.iter
    (fun (g1, g2) ->
       Obs.reset ();
       Obs.set_enabled false;
       let p1, p2 = Kwl.run_pair 2 g1 g2 in
       Obs.set_enabled true;
       Obs.set_tracing true;
       let q1, q2 = Kwl.run_pair 2 g1 g2 in
       Obs.set_tracing false;
       Obs.set_enabled false;
       Obs.reset ();
       let arr_eq = Wlcq_util.Ordering.equal_array Int.equal in
       check_bool "colour buffers byte-identical (g1)" true
         (arr_eq p1.Kwl.colours q1.Kwl.colours);
       check_bool "colour buffers byte-identical (g2)" true
         (arr_eq p2.Kwl.colours q2.Kwl.colours);
       check_int "same colour count" p1.Kwl.num_colours q1.Kwl.num_colours;
       check_int "same round count" p1.Kwl.rounds q1.Kwl.rounds)
    pairs

let test_engine_metrics_flow () =
  (* end-to-end: a real Kwl run populates the registry and the table *)
  with_obs ~tracing:true (fun () ->
      ignore (Kwl.run 2 (Builders.path 4));
      check_bool "kwl.rounds recorded" true
        (match Obs.find_counter "kwl.rounds" with
         | Some c -> Obs.counter_value c > 0
         | None -> false);
      check_bool "kwl.run span recorded" true (span_count "kwl.run" >= 1);
      let table = Obs.metrics_table () in
      check_bool "metrics table non-empty" true (String.length table > 0);
      check_bool "trace from the run parses" true
        (Obs.json_parseable (Obs.trace_json ())))

let () =
  Alcotest.run "wlcq_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "disabled path records nothing" `Quick
            test_disabled_is_noop;
          Alcotest.test_case "distribution summary" `Quick
            test_distribution_summary;
          Alcotest.test_case "reset and keep_trace" `Quick
            test_reset_semantics;
          Alcotest.test_case "report_hit_rate" `Quick test_hit_rate;
          Alcotest.test_case "unwritten metrics read zero" `Quick
            test_unwritten_metrics;
        ] );
      ( "concurrency",
        Alcotest.test_case "first writes race" `Quick test_first_write_race
        :: List.map (QCheck_alcotest.to_alcotest ~long:false)
             (obs_qcheck @ journal_qcheck) );
      ( "histograms",
        Alcotest.test_case "bucket geometry" `Quick test_bucket_geometry
        :: Alcotest.test_case "quantile empty and bounds" `Quick
             test_quantile_empty_and_bounds
        :: List.map (QCheck_alcotest.to_alcotest ~long:false) quantile_qcheck
      );
      ( "journal",
        [
          Alcotest.test_case "off by default" `Quick
            test_journal_off_by_default;
          Alcotest.test_case "basics" `Quick test_journal_basics;
          Alcotest.test_case "JSONL strictly parseable" `Quick
            test_journal_jsonl_parseable;
          Alcotest.test_case "ring bounded, newest survive" `Quick
            test_journal_ring_bounded;
          Alcotest.test_case "postmortem dump writes JSONL file" `Quick
            test_journal_dump_writes_file;
        ] );
      ( "entry points",
        [
          Alcotest.test_case "scope nesting and wall histogram" `Quick
            test_entry_point_scope_and_histogram;
          Alcotest.test_case "worker domains inherit the scope" `Quick
            test_entry_point_worker_fallback;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "allocation attribution" `Quick
            test_alloc_profiling_attribution;
          Alcotest.test_case "folded exporter shape" `Quick
            test_folded_exporter;
          Alcotest.test_case "trace deterministic across domains" `Quick
            test_trace_deterministic_across_domains;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "OpenMetrics roundtrip" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "self-diff is clean" `Quick
            test_snapshot_self_diff_clean;
          Alcotest.test_case "injected regression detected" `Quick
            test_snapshot_detects_regression;
          Alcotest.test_case "rate mode normalises by uptime" `Quick
            test_snapshot_rate_mode;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting paths" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "trace JSON well-formed" `Quick
            test_trace_json_well_formed;
          Alcotest.test_case "JSON acceptor rejects garbage" `Quick
            test_json_acceptor_rejects_garbage;
        ] );
      ( "differential",
        [
          Alcotest.test_case "Kwl unperturbed by instrumentation" `Quick
            test_kwl_unperturbed_by_instrumentation;
          Alcotest.test_case "engine metrics flow end-to-end" `Quick
            test_engine_metrics_flow;
        ] );
    ]
