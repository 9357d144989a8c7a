(* Tests for Wlcq_robust: budget mechanics, deterministic fault
   injection, and the degradation ladders of every budgeted engine.

   The ladder tests drive each rung deterministically, without timers:

   - a budget whose latch is tripped by hand ([Budget.trip], no real
     condition behind it) makes every raising check site fire at once,
     while a {!Budget.fork} of it is condition-free and never re-trips
     — this separates "the search phase exhausted" from "the DP rung
     completed after degradation";
   - a budget over an already-cancelled token re-trips at every poll,
     including polls of forked continuation budgets;
   - the {!Fault} layer forces the spawn-demotion and DP-allocation
     paths at rate 1.0.

   Every rung is asserted through its [robust.fallback.*] counter. *)

open Wlcq_graph
open Wlcq_robust
module Obs = Wlcq_obs.Obs
module Cache = Wlcq_cache.Cache
module Exact = Wlcq_treewidth.Exact
module Brute = Wlcq_hom.Brute
module Inj = Wlcq_hom.Inj
module Td_count = Wlcq_hom.Td_count
module Nice_count = Wlcq_oracle.Nice_count
module Fanout = Wlcq_oracle.Fanout
module Steer = Wlcq_oracle.Steer
module Dispatch = Wlcq_dispatch.Dispatch
module Kwl = Wlcq_wl.Kwl
module Cfi = Wlcq_cfi.Cfi
module Cloning = Wlcq_cfi.Cloning
module Cq = Wlcq_core.Cq
module Parser = Wlcq_core.Parser
module Ucq = Wlcq_core.Ucq
module Fast_count = Wlcq_core.Fast_count
module Wl_dimension = Wlcq_core.Wl_dimension
module Kg_kwl = Wlcq_kg.Kwl
module Kspec = Wlcq_kg.Kspec
module Kparser = Wlcq_kg.Kparser
module Bigint = Wlcq_util.Bigint
module Bitset = Wlcq_util.Bitset
module Prng = Wlcq_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let reason = Alcotest.testable (Fmt.of_to_string Budget.reason_to_string) ( = )

(* ------------------------------------------------------------------ *)
(* Harness helpers                                                     *)
(* ------------------------------------------------------------------ *)

let ctr name =
  match Obs.find_counter name with
  | Some c -> Obs.counter_value c
  | None -> Alcotest.failf "counter %s is not registered" name

(* Assert that running [f] bumps the named fallback counter. *)
let expect_bump name f =
  let before = ctr name in
  let r = f () in
  check_bool (name ^ " bumped") true (ctr name > before);
  r

(* A live budget whose latch was tripped by hand: every raising check
   site fires immediately, but a fork of it has no condition to
   re-trip on. *)
let hand_tripped () =
  let b = Budget.create () in
  Budget.trip b Budget.Deadline;
  b

(* A budget over an already-cancelled token: trips at the first poll,
   and so does any fork of it. *)
let cancelled_budget () =
  let tk = Budget.token () in
  Budget.cancel tk;
  Budget.create ~cancel:tk ()

let with_fault ~seed ?rate ~sites f =
  Fault.arm ~seed ?rate ~sites ();
  Fun.protect ~finally:Fault.disarm f

(* A 9-vertex G(n, p) draw whose heuristic treewidth bracket is loose
   (lb 4 < ub 5), so the budgeted solver actually enters the branch
   and bound instead of short-circuiting on a tight bracket. *)
let loose_bracket_graph () = Gen.gnp (Prng.create 26) 9 0.5

(* ------------------------------------------------------------------ *)
(* Budget mechanics                                                    *)
(* ------------------------------------------------------------------ *)

let test_create_validation () =
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> true
    | (_ : Budget.t) -> false
  in
  check_bool "deadline 0 rejected" true (invalid (fun () ->
      Budget.create ~deadline_ms:0.0 ()));
  check_bool "negative deadline rejected" true (invalid (fun () ->
      Budget.create ~deadline_ms:(-3.0) ()));
  check_bool "live-words 0 rejected" true (invalid (fun () ->
      Budget.create ~max_live_mb:0 ()));
  check_bool "unlimited is unlimited" true (Budget.is_unlimited Budget.unlimited);
  check_bool "created budget is limited" false
    (Budget.is_unlimited (Budget.create ()))

let test_trip_latch () =
  let b = Budget.create () in
  check_bool "fresh budget live" true (Budget.live b);
  check_bool "fresh budget not tripped" true (Option.is_none (Budget.tripped b));
  Budget.trip b Budget.Deadline;
  Budget.trip b Budget.Memory;
  (* first writer wins *)
  Alcotest.(check (option reason)) "latched reason" (Some Budget.Deadline)
    (Budget.tripped b);
  check_bool "tripped budget not live" false (Budget.live b);
  check_bool "poll reports the trip" true (Budget.poll b);
  (match Budget.check b with
   | exception Budget.Exhausted r ->
     Alcotest.check reason "check raises the latched reason" Budget.Deadline r
   | () -> Alcotest.fail "check on a tripped budget must raise");
  match Budget.tick_check b with
  | exception Budget.Exhausted _ -> ()
  | () -> Alcotest.fail "tick_check on a tripped budget must raise"

let test_cancellation () =
  let tk = Budget.token () in
  check_bool "fresh token" false (Budget.cancelled tk);
  let b = Budget.create ~cancel:tk () in
  check_bool "no trip before cancel" false (Budget.poll b);
  Budget.cancel tk;
  Budget.cancel tk;
  check_bool "cancel is idempotent" true (Budget.cancelled tk);
  check_bool "poll trips on the cancelled token" true (Budget.poll b);
  Alcotest.(check (option reason)) "reason is Cancelled"
    (Some Budget.Cancelled) (Budget.tripped b)

let test_deadline_trips () =
  let b = Budget.create ~deadline_ms:0.01 () in
  (* busy-wait past the 10 microsecond deadline, then poll *)
  let t0 = Obs.now_ns () in
  while Int64.sub (Obs.now_ns ()) t0 < 1_000_000L do
    ignore (Sys.opaque_identity ())
  done;
  check_bool "poll trips after the deadline" true (Budget.poll b);
  Alcotest.(check (option reason)) "reason is Deadline" (Some Budget.Deadline)
    (Budget.tripped b)

let test_remaining_ns () =
  check_bool "no deadline, no remaining" true
    (Option.is_none (Budget.remaining_ns (Budget.create ())));
  match Budget.remaining_ns (Budget.create ~deadline_ms:1000.0 ()) with
  | None -> Alcotest.fail "deadline budget must report remaining time"
  | Some ns ->
    check_bool "remaining positive" true (Int64.compare ns 0L > 0);
    check_bool "remaining below the deadline" true
      (Int64.compare ns 1_000_000_000L <= 0)

let test_unlimited_inert () =
  let b = Budget.unlimited in
  Budget.tick b;
  Budget.tick_check b;
  Budget.check b;
  Budget.trip b Budget.Deadline;
  check_bool "unlimited never polls true" false (Budget.poll b);
  check_bool "unlimited never trips" true (Option.is_none (Budget.tripped b));
  check_bool "unlimited is live" true (Budget.live b);
  check_bool "fork unlimited = unlimited" true
    (Budget.is_unlimited (Budget.fork b))

let test_fork () =
  (* a hand trip has no condition behind it: the fork stays live *)
  let b = hand_tripped () in
  let f = Budget.fork b in
  check_bool "fork forgets the latch" true (Option.is_none (Budget.tripped f));
  check_bool "fork of a hand trip never re-trips" false (Budget.poll f);
  check_bool "original stays tripped" false (Budget.live b);
  (* a cancelled token is a standing condition: the fork re-trips *)
  let b = cancelled_budget () in
  ignore (Budget.poll b);
  let f = Budget.fork b in
  check_bool "fork latch starts clear" true (Option.is_none (Budget.tripped f));
  check_bool "fork re-trips on the cancelled token" true (Budget.poll f);
  Alcotest.(check (option reason)) "fork re-trip reason"
    (Some Budget.Cancelled) (Budget.tripped f)

let test_tick_interval_poll () =
  (* ticks poll only every tick_interval: a cancelled token goes
     unnoticed until then *)
  let b = cancelled_budget () in
  for _ = 1 to Budget.tick_interval - 2 do
    Budget.tick b
  done;
  check_bool "no poll before the interval" true (Budget.live b);
  for _ = 1 to 2 * Budget.tick_interval do
    Budget.tick b
  done;
  check_bool "tick polls at the interval" false (Budget.live b)

let test_memory_ceiling () =
  (* a 3 MB array held live puts the major heap over a 1 MB ceiling:
     the first check samples the heap and trips, and so does the first
     poll of a fork, which starts its own sample count *)
  let held = Array.make (3 * 1024 * 1024 / (Sys.word_size / 8)) 0 in
  let b = Budget.create ~max_live_mb:1 () in
  (match Budget.check b with
   | exception Budget.Exhausted r ->
     Alcotest.check reason "first check trips on the heap" Budget.Memory r
   | () -> Alcotest.fail "a heap over the ceiling must trip the first check");
  let f = Budget.fork b in
  check_bool "fork re-trips at its first poll" true (Budget.poll f);
  Alcotest.(check (option reason)) "fork trip reason" (Some Budget.Memory)
    (Budget.tripped f);
  ignore (Sys.opaque_identity held)

(* ------------------------------------------------------------------ *)
(* Fault layer                                                         *)
(* ------------------------------------------------------------------ *)

let test_fault_arm_disarm () =
  check_bool "disarmed by default" false (Fault.armed ());
  check_bool "disarmed never fails" false (Fault.should_fail Fault.Dp_alloc);
  with_fault ~seed:7 ~sites:[ Fault.Deadline_check ] (fun () ->
      check_bool "armed" true (Fault.armed ());
      check_bool "armed site fails at rate 1" true
        (Fault.should_fail Fault.Deadline_check);
      check_bool "unarmed site never fails" false
        (Fault.should_fail Fault.Domain_spawn);
      check_int "injection counted" 1 (Fault.injected Fault.Deadline_check);
      check_int "other site not counted" 0 (Fault.injected Fault.Domain_spawn));
  check_bool "disarm restores silence" false
    (Fault.should_fail Fault.Deadline_check);
  match Fault.arm ~seed:1 ~rate:1.5 () with
  | exception Invalid_argument _ -> ()
  | () ->
    Fault.disarm ();
    Alcotest.fail "rate outside [0, 1] must be rejected"

let test_fault_determinism () =
  let draw_sequence seed =
    with_fault ~seed ~rate:0.5 ~sites:[ Fault.Domain_spawn ] (fun () ->
        List.init 64 (fun _ -> Fault.should_fail Fault.Domain_spawn))
  in
  let s1 = draw_sequence 42 in
  check_bool "same seed, same draws" true (s1 = draw_sequence 42);
  check_bool "different seed, different draws" true (s1 <> draw_sequence 43);
  check_bool "rate 0.5 fails sometimes" true (List.mem true s1);
  check_bool "rate 0.5 passes sometimes" true (List.mem false s1);
  let zeros =
    with_fault ~seed:42 ~rate:0.0 ~sites:[ Fault.Domain_spawn ] (fun () ->
        List.init 64 (fun _ -> Fault.should_fail Fault.Domain_spawn))
  in
  check_bool "rate 0 never fails" false (List.mem true zeros)

let test_fault_trips_budgets () =
  with_fault ~seed:3 ~sites:[ Fault.Deadline_check ] (fun () ->
      let b = Budget.create () in
      check_bool "armed fault trips a live poll" true (Budget.poll b);
      match Budget.tripped b with
      | Some (Budget.Injected _) -> ()
      | other ->
        Alcotest.failf "expected an injected trip, got %s"
          (match other with
           | None -> "no trip"
           | Some r -> Budget.reason_to_string r));
  check_bool "unlimited ignores the fault layer" false
    (with_fault ~seed:3 ~sites:[ Fault.Deadline_check ] (fun () ->
         Budget.poll Budget.unlimited))

(* ------------------------------------------------------------------ *)
(* Degradation ladders, rung by rung                                   *)
(* ------------------------------------------------------------------ *)

let test_treewidth_ladder () =
  let g = loose_bracket_graph () in
  let exact = Exact.treewidth g in
  (match Exact.treewidth_budgeted ~budget:(Budget.create ()) g with
   | `Exact w -> check_int "live budget: exact treewidth" exact w
   | `Degraded _ | `Exhausted _ -> Alcotest.fail "live budget must stay exact");
  match
    expect_bump "robust.fallback.tw_heuristic" (fun () ->
        Exact.treewidth_budgeted ~budget:(hand_tripped ()) g)
  with
  | `Degraded (w, r) ->
    check_bool "degraded width is an upper bound" true (w >= exact);
    Alcotest.check reason "degradation cause" Budget.Deadline r.Outcome.cause
  | `Exact _ -> Alcotest.fail "tripped budget cannot report exact"
  | `Exhausted _ -> Alcotest.fail "treewidth always has its heuristic rung"

let test_partial_count_ladders () =
  let h = Builders.path 3 and g = Builders.clique 4 in
  let exact = Brute.count h g in
  (match
     expect_bump "robust.fallback.brute_partial" (fun () ->
         Brute.count_budgeted ~budget:(hand_tripped ()) h g)
   with
   | `Exhausted (partial, r) ->
     check_bool "brute partial is a lower bound" true
       (partial >= 0 && partial <= exact);
     Alcotest.check reason "brute trip reason" Budget.Deadline r
   | `Exact _ | `Degraded _ -> Alcotest.fail "tripped brute must exhaust");
  (match
     expect_bump "robust.fallback.inj_partial" (fun () ->
         Inj.count_budgeted ~budget:(hand_tripped ()) h g)
   with
   | `Exhausted (partial, _) ->
     check_bool "inj partial is a lower bound" true
       (partial >= 0 && partial <= Inj.count h g)
   | `Exact _ | `Degraded _ -> Alcotest.fail "tripped inj must exhaust");
  (* the answer counter's partial is the projection-row kernel's
     running total at the trip.  A fault injected at the first poll
     (tick [Budget.tick_interval]) lands after the kernel's component
     sweep, inside its join, so the partial is a real count *)
  let star3 =
    (Parser.parse_exn
       "(x1, x2, x3) := exists y . E(x1, y) & E(x2, y) & E(x3, y)").query
  in
  let g_enum = Builders.cycle 30 in
  let exact = Bigint.of_int (Cq.count_answers star3 g_enum) in
  (match
     with_fault ~seed:5 ~sites:[ Fault.Deadline_check ] (fun () ->
         expect_bump "dispatch.chose_enum" (fun () ->
             expect_bump "robust.fallback.fast_exhausted" (fun () ->
                 Fast_count.count_answers_budgeted ~budget:(Budget.create ())
                   star3 g_enum)))
   with
   | `Exhausted (partial, _) ->
     check_bool "kernel partial is a lower bound" true
       (Bigint.sign partial >= 0 && Bigint.compare partial exact <= 0);
     check_bool "kernel partial counts answers" true (Bigint.sign partial > 0)
   | `Exact _ | `Degraded _ -> Alcotest.fail "tripped kernel must exhaust");
  (* a DP table cut off mid-run has no sound reading: the packed route
     reports 0.  A 5-free quantified path on a clique is the DP's: the
     kernel's join would visit 24^4 prefixes *)
  let qpath5 =
    (Parser.parse_exn
       "(x0, x1, x2, x3, x4) := exists y0 y1 y2 y3 . E(x0, y0) & E(y0, x1) \
        & E(x1, y1) & E(y1, x2) & E(x2, y2) & E(y2, x3) & E(x3, y3) \
        & E(y3, x4)").query
  in
  match
    expect_bump "dispatch.chose_packed" (fun () ->
        Fast_count.count_answers_budgeted ~budget:(hand_tripped ()) qpath5
          (Builders.clique 24))
  with
  | `Exhausted (partial, _) ->
    check_bool "packed partial is 0" true (Bigint.is_zero partial)
  | `Exact _ | `Degraded _ -> Alcotest.fail "tripped DP must exhaust"

let test_td_count_ladder () =
  let h = loose_bracket_graph () and g = Builders.clique 7 in
  let exact = Td_count.count h g in
  Cache.clear ();
  (match Td_count.count_budgeted ~budget:(Budget.create ()) h g with
   | `Exact v -> check_bool "live budget: exact count" true (Bigint.equal v exact)
   | `Degraded _ | `Exhausted _ -> Alcotest.fail "live budget must stay exact");
  (* hand trip: decomposition degrades, the forked DP completes — the
     count is still exact, over the heuristic decomposition.  The
     content-addressed tier is now readable under a budget, so it must
     be emptied or the memoised total short-circuits the ladder. *)
  Cache.clear ();
  (match
     expect_bump "robust.fallback.td_heuristic_decomp" (fun () ->
         Td_count.count_budgeted ~budget:(hand_tripped ()) h g)
   with
   | `Degraded (v, r) ->
     check_bool "degraded count is exact" true (Bigint.equal v exact);
     Alcotest.check reason "degradation cause" Budget.Deadline r.Outcome.cause
   | `Exact _ -> Alcotest.fail "tripped budget cannot report exact"
   | `Exhausted _ ->
     Alcotest.fail "condition-free trip must reach the heuristic-DP rung");
  (* an injected allocation failure exhausts the DP itself — again the
     warm content tier would mask the fault, so empty it first *)
  Cache.clear ();
  match
    with_fault ~seed:5 ~sites:[ Fault.Dp_alloc ] (fun () ->
        expect_bump "robust.fallback.td_exhausted" (fun () ->
            Td_count.count_budgeted ~budget:(Budget.create ()) h g))
  with
  | `Exhausted (Budget.Injected site) ->
    Alcotest.(check string) "injected site" "dp_alloc" site
  | `Exhausted r ->
    Alcotest.failf "expected an injected trip, got %s"
      (Budget.reason_to_string r)
  | `Exact _ | `Degraded _ -> Alcotest.fail "dp_alloc fault must exhaust"

let test_nice_count_ladder () =
  let h = loose_bracket_graph () and g = Builders.clique 7 in
  let exact = Nice_count.count h g in
  check_bool "nice agrees with td" true (Bigint.equal exact (Td_count.count h g));
  Cache.clear ();
  (match
     expect_bump "robust.fallback.nice_heuristic_decomp" (fun () ->
         Nice_count.count_budgeted ~budget:(hand_tripped ()) h g)
   with
   | `Degraded (v, _) ->
     check_bool "degraded nice count is exact" true (Bigint.equal v exact)
   | `Exact _ | `Exhausted _ ->
     Alcotest.fail "condition-free trip must reach the heuristic-DP rung");
  (* a cancelled token is a standing condition: the forked DP re-trips
     at its first poll and the ladder bottoms out *)
  Cache.clear ();
  match
    expect_bump "robust.fallback.nice_exhausted" (fun () ->
        Nice_count.count_budgeted ~budget:(cancelled_budget ()) h g)
  with
  | `Exhausted r -> Alcotest.check reason "re-trip reason" Budget.Cancelled r
  | `Exact _ | `Degraded _ ->
    Alcotest.fail "cancelled token must exhaust the whole ladder"

(* The fan-out tests go through [count_with_decomposition_budgeted]
   with K1,4 decomposed around its centre at node 0, where the DP
   roots: four leaf subtrees to spread over workers.  (The
   decompositions [count_budgeted] builds make node 0 a leaf, so it
   never fans out.) *)
let test_td_spawn_demotion () =
  if Domain.recommended_domain_count () <= 1 then ()
  else begin
    let h, d = Fanout.star 4 and g = Builders.clique 6 in
    let exact = Td_count.count h g in
    Steer.with_calibration
      { Dispatch.default_calibration with Dispatch.dp_parallel_min = 0 }
      (fun () ->
         match
           with_fault ~seed:9 ~sites:[ Fault.Domain_spawn ] (fun () ->
               expect_bump "td_count.par_runs" (fun () ->
                   expect_bump "robust.fallback.td_seq_resume" (fun () ->
                       Td_count.count_with_decomposition_budgeted
                         ~budget:(Budget.create ()) d h g)))
         with
         | `Exact v ->
           check_bool "demoted strides, byte-identical count" true
             (Bigint.equal v exact)
         | `Degraded _ | `Exhausted _ ->
           Alcotest.fail "spawn demotion must not change the outcome")
  end

let test_kwl_ladder () =
  (* pre-tripped: the initial colouring aborts with no usable prefix *)
  (match
     expect_bump "robust.fallback.kwl_exhausted" (fun () ->
         Kwl.run_budgeted ~budget:(hand_tripped ()) 2 (Builders.cycle 8))
   with
   | `Exhausted r -> Alcotest.check reason "kwl trip reason" Budget.Deadline r
   | `Exact _ | `Degraded _ -> Alcotest.fail "tripped kwl must exhaust");
  (* a cancelled token noticed mid-refinement keeps the completed
     rounds as a sound stable-colour prefix *)
  let g = Builders.cycle 16 in
  let full = Kwl.run 2 g in
  match
    expect_bump "robust.fallback.kwl_prefix" (fun () ->
        Kwl.run_budgeted ~budget:(cancelled_budget ()) 2 g)
  with
  | `Degraded (r, why) ->
    check_bool "prefix stopped early" true (r.Kwl.rounds < full.Kwl.rounds);
    check_bool "prefix is coarser" true
      (r.Kwl.num_colours <= full.Kwl.num_colours);
    Alcotest.check reason "prefix cause" Budget.Cancelled why.Outcome.cause
  | `Exact _ -> Alcotest.fail "cancelled token must degrade the run"
  | `Exhausted _ ->
    Alcotest.fail "C16 initial colouring fits under the first poll interval"

let test_kwl_spawn_demotion () =
  let g1 = Builders.cycle 12 and g2 = Builders.path 12 in
  let plain = Kwl.run_many ~domains:2 2 [ g1; g2 ] in
  Steer.with_calibration
    { Dispatch.default_calibration with Dispatch.wl_parallel_min = 0 }
    (fun () ->
       let demoted =
         with_fault ~seed:11 ~sites:[ Fault.Domain_spawn ] (fun () ->
             expect_bump "robust.fallback.kwl_seq_compute" (fun () ->
                 Kwl.run_many ~domains:2 2 [ g1; g2 ]))
       in
       check_bool "demoted chunks, byte-identical colours" true
         (List.for_all2
            (fun (a : Kwl.result) (b : Kwl.result) ->
               a.Kwl.colours = b.Kwl.colours
               && a.Kwl.num_colours = b.Kwl.num_colours
               && a.Kwl.rounds = b.Kwl.rounds)
            plain demoted))

(* ------------------------------------------------------------------ *)
(* Postmortem flight-recorder dumps                                    *)
(* ------------------------------------------------------------------ *)

let contains needle s =
  let n = String.length needle and h = String.length s in
  let rec go i =
    i + n <= h && (String.equal (String.sub s i n) needle || go (i + 1))
  in
  go 0

(* Arm the flight recorder with an automatic dump file around [f] (a
   scenario that must end in a trip or an injected fault), then assert
   the PR 8 acceptance contract: the dump exists, every line is strict
   JSON, and the final event names the engine it interrupted. *)
let with_postmortem ~engine f =
  let file = Filename.temp_file "wlcq_postmortem" ".jsonl" in
  Obs.set_journal true;
  Obs.set_journal_dump (Some file);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_journal_dump None;
      Obs.set_journal false;
      if Sys.file_exists file then Sys.remove file)
    (fun () ->
      f ();
      check_bool "postmortem dump written" true (Sys.file_exists file);
      let contents = In_channel.with_open_bin file In_channel.input_all in
      let lines = String.split_on_char '\n' (String.trim contents) in
      check_bool "dump is non-empty" true
        (match lines with [] | [ "" ] -> false | _ -> true);
      List.iter
        (fun l ->
           check_bool "dump line is strict JSON" true (Obs.json_parseable l))
        lines;
      let last = match List.rev lines with l :: _ -> l | [] -> "" in
      check_bool "last event is a postmortem marker" true
        (contains "journal.dump" last || contains "fault.injected" last
         || contains "budget.trip" last);
      check_bool
        (Printf.sprintf "last event names the %s engine" engine)
        true
        (contains (Printf.sprintf "\"comp\":%S" engine) last))

let test_postmortem_td_fault () =
  let h = loose_bracket_graph () and g = Builders.clique 7 in
  (* the ladder tests memoised this exact (h, g) total; a warm content
     tier would answer before the DP fault can fire *)
  Cache.clear ();
  with_postmortem ~engine:"td_count.count" (fun () ->
      match
        with_fault ~seed:5 ~sites:[ Fault.Dp_alloc ] (fun () ->
            Td_count.count_budgeted ~budget:(Budget.create ()) h g)
      with
      | `Exhausted _ -> ()
      | `Exact _ | `Degraded _ -> Alcotest.fail "dp_alloc fault must exhaust")

let test_postmortem_kwl_trip () =
  with_postmortem ~engine:"kwl.run_many" (fun () ->
      match
        Kwl.run_budgeted ~budget:(cancelled_budget ()) 2 (Builders.cycle 16)
      with
      | `Degraded _ | `Exhausted _ -> ()
      | `Exact _ -> Alcotest.fail "cancelled token must not stay exact")

let test_postmortem_spawn_demotion () =
  if Domain.recommended_domain_count () <= 1 then ()
  else begin
    let h, d = Fanout.star 4 and g = Builders.clique 6 in
    Steer.with_calibration
      { Dispatch.default_calibration with Dispatch.dp_parallel_min = 0 }
      (fun () ->
         with_postmortem ~engine:"td_count.count_with_decomposition" (fun () ->
             match
               with_fault ~seed:9 ~sites:[ Fault.Domain_spawn ] (fun () ->
                   expect_bump "td_count.par_runs" (fun () ->
                       Td_count.count_with_decomposition_budgeted
                         ~budget:(Budget.create ()) d h g))
             with
             | `Exact _ -> ()
             | `Degraded _ | `Exhausted _ ->
               Alcotest.fail "spawn demotion must not change the outcome"))
  end

let test_cfi_cloning_ladder () =
  let base = Builders.cycle 5 in
  let even = Cfi.even base in
  (match Cfi.build_budgeted ~budget:(Budget.create ()) base (Bitset.create 5) with
   | `Exact t ->
     check_int "live build matches even" (Cfi.num_vertices even)
       (Cfi.num_vertices t)
   | `Degraded _ | `Exhausted _ -> Alcotest.fail "live build must stay exact");
  (match
     expect_bump "robust.fallback.cfi_abandoned" (fun () ->
         Cfi.build_budgeted ~budget:(hand_tripped ()) base (Bitset.create 5))
   with
   | `Exhausted _ -> ()
   | `Exact _ | `Degraded _ ->
     Alcotest.fail "CFI builds are all-or-nothing under a tripped budget");
  match
    expect_bump "robust.fallback.clone_abandoned" (fun () ->
        Cloning.clone_budgeted ~budget:(hand_tripped ())
          ~g:even.Cfi.graph ~f:base ~c:even.Cfi.projection [ (0, 2) ])
  with
  | `Exhausted _ -> ()
  | `Exact _ | `Degraded _ ->
    Alcotest.fail "clones are all-or-nothing under a tripped budget"

let test_dimension_interval () =
  let q = (Parser.parse_exn "(x1, x2) := exists y . E(x1, y) & E(x2, y)").query in
  let exact = Wl_dimension.dimension q in
  (match Wl_dimension.dimension_budgeted ~budget:(Budget.create ()) q with
   | `Exact d -> check_int "live budget: exact dimension" exact d
   | `Degraded _ | `Exhausted _ -> Alcotest.fail "live budget must stay exact");
  match
    expect_bump "robust.fallback.dim_interval" (fun () ->
        Wl_dimension.dimension_budgeted ~budget:(hand_tripped ()) q)
  with
  | `Exhausted ((lo, hi), _) ->
    check_bool "certified interval contains the dimension" true
      (lo <= exact && exact <= hi)
  | `Exact _ -> Alcotest.fail "tripped budget cannot report exact"
  | `Degraded _ -> Alcotest.fail "dimension never degrades to a point value"

let test_fast_count_ladder () =
  let q = (Parser.parse_exn "(x1, x2) := exists y . E(x1, y) & E(x2, y)").query in
  let g = Builders.clique 5 in
  let exact = Fast_count.count_answers q g in
  (match Fast_count.count_answers_budgeted ~budget:(Budget.create ()) q g with
   | `Exact v -> check_bool "live budget: exact count" true (Bigint.equal v exact)
   | `Degraded _ | `Exhausted _ -> Alcotest.fail "live budget must stay exact");
  match
    expect_bump "robust.fallback.fast_exhausted" (fun () ->
        Fast_count.count_answers_budgeted ~budget:(hand_tripped ()) q g)
  with
  | `Exhausted _ -> ()
  | `Exact _ | `Degraded _ -> Alcotest.fail "tripped DP must exhaust"

let test_kg_ladder () =
  let g =
    Kspec.parse_exn "6 ; edges 0-0>1 1-0>2 2-0>3 3-0>4 4-0>5 5-0>0"
  in
  (match
     expect_bump "robust.fallback.kg_exhausted" (fun () ->
         Kg_kwl.run_budgeted ~budget:(hand_tripped ()) 2 g)
   with
   | `Exhausted _ -> ()
   | `Exact _ | `Degraded _ -> Alcotest.fail "tripped kg run must exhaust");
  let full = Kg_kwl.run 2 g in
  match
    expect_bump "robust.fallback.kg_prefix" (fun () ->
        Kg_kwl.run_budgeted ~budget:(cancelled_budget ()) 2 g)
  with
  | `Degraded (r, why) ->
    check_bool "kg prefix stopped at or before the stable round" true
      (r.Kg_kwl.rounds <= full.Kg_kwl.rounds);
    Alcotest.check reason "kg prefix cause" Budget.Cancelled why.Outcome.cause
  | `Exact _ -> Alcotest.fail "cancelled token must degrade the kg run"
  | `Exhausted _ -> Alcotest.fail "the atomic typing fits under one poll"

(* ------------------------------------------------------------------ *)
(* Responsiveness: 1 ms deadlines answer within 50 ms                  *)
(* ------------------------------------------------------------------ *)

let elapsed_ms f =
  let t0 = Obs.now_ns () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e6)

let check_prompt name outcome_ms =
  let (_ : unit), ms = outcome_ms in
  check_bool (Printf.sprintf "%s answers within 50 ms (took %.1f)" name ms)
    true (ms <= 50.0)

(* Each timed call must run its engine, not read a memoised answer.
   The fresh random graph's decomposition cannot be in the cache tier,
   and the miss counter proves it; emptying the whole tier instead
   would shrink the live heap just before the timed search and slow it
   through GC pacing.  The later calls empty the tier, outside the
   timed region (set-up, not engine work). *)
let test_deadline_responsiveness () =
  let rng = Prng.create 17 in
  let big = Gen.gnp rng 26 0.35 in
  check_prompt "optimal_decomposition_budgeted"
    (expect_bump "tw.decomp_memo_misses" (fun () ->
         elapsed_ms (fun () ->
             let b = Budget.create ~deadline_ms:1.0 () in
             ignore (Exact.optimal_decomposition_budgeted ~budget:b big))));
  check_prompt "Brute.count_budgeted"
    (elapsed_ms (fun () ->
         let b = Budget.create ~deadline_ms:1.0 () in
         ignore (Brute.count_budgeted ~budget:b (Builders.cycle 5)
                   (Builders.clique 16))));
  Cache.clear ();
  check_prompt "Td_count.count_budgeted"
    (elapsed_ms (fun () ->
         let b = Budget.create ~deadline_ms:1.0 () in
         ignore (Td_count.count_budgeted ~budget:b (Builders.path 8)
                   (Gen.gnp rng 40 0.3))));
  check_prompt "Kwl.run_budgeted"
    (elapsed_ms (fun () ->
         let b = Budget.create ~deadline_ms:1.0 () in
         ignore (Kwl.run_budgeted ~budget:b 3 (Gen.gnp rng 20 0.5))));
  check_prompt "Cfi.build_budgeted"
    (elapsed_ms (fun () ->
         let b = Budget.create ~deadline_ms:1.0 () in
         ignore (Cfi.build_budgeted ~budget:b (Builders.star 22)
                   (Bitset.create 23))));
  Cache.clear ();
  check_prompt "Wl_dimension.dimension_budgeted"
    (elapsed_ms (fun () ->
         let b = Budget.create ~deadline_ms:1.0 () in
         let q = Cq.make (Gen.gnp rng 10 0.4) [ 0; 1 ] in
         ignore (Wl_dimension.dimension_budgeted ~budget:b q)))

(* ------------------------------------------------------------------ *)
(* Properties: containment and budget-off differentials                *)
(* ------------------------------------------------------------------ *)

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

(* (graph seed, budget mode): 0 = unlimited, 1 = hand trip,
   2 = cancelled token *)
let scenario =
  QCheck.make
    ~print:(fun (s, m) -> Printf.sprintf "seed %d, mode %d" s m)
    QCheck.Gen.(pair (int_bound 10_000) (int_bound 2))

let budget_of_mode = function
  | 0 -> Budget.unlimited
  | 1 -> hand_tripped ()
  | _ -> cancelled_budget ()

let graph_of_seed s =
  let rng = Prng.create (1 + s) in
  let n = 4 + (s mod 7) in
  Gen.gnp rng n 0.4

let prop_brute_containment =
  qtest "Brute.count_budgeted bounds contain the exact count" scenario
    (fun (s, mode) ->
       let g = graph_of_seed s in
       let h = Builders.path (2 + (s mod 3)) in
       let exact = Brute.count h g in
       match Brute.count_budgeted ~budget:(budget_of_mode mode) h g with
       | `Exact v -> v = exact
       | `Degraded _ -> false
       | `Exhausted (partial, _) -> 0 <= partial && partial <= exact)

let prop_treewidth_containment =
  qtest "treewidth_budgeted degraded widths are upper bounds" scenario
    (fun (s, mode) ->
       let g = graph_of_seed s in
       let exact = Exact.treewidth g in
       match Exact.treewidth_budgeted ~budget:(budget_of_mode mode) g with
       | `Exact w -> w = exact
       | `Degraded (w, _) -> w >= exact
       | `Exhausted _ -> false)

let prop_td_count_containment =
  qtest "Td_count.count_budgeted sound values are exact" scenario
    (fun (s, mode) ->
       let g = graph_of_seed s in
       let h = Builders.cycle (3 + (s mod 2)) in
       (* the exact count comes from the reference oracle, which
          leaves the cache tier alone, so the budgeted run below
          computes instead of reading a memoised total *)
       let exact = Wlcq_oracle.Td_ref.count h g in
       match Td_count.count_budgeted ~budget:(budget_of_mode mode) h g with
       | `Exact v | `Degraded (v, _) -> Bigint.equal v exact
       | `Exhausted _ -> mode <> 0)

let prop_dimension_containment =
  qtest ~count:40 "dimension_budgeted intervals contain the dimension"
    scenario
    (fun (s, mode) ->
       let q = Cq.make (graph_of_seed s) [ 0 ] in
       let exact = Wl_dimension.dimension q in
       match Wl_dimension.dimension_budgeted ~budget:(budget_of_mode mode) q with
       | `Exact d -> d = exact
       | `Degraded _ -> false
       | `Exhausted ((lo, hi), _) -> lo <= exact && exact <= hi)

let prop_budget_off_identical =
  qtest ~count:60 "unlimited budgets are byte-identical to no budget"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun s ->
       let g = graph_of_seed s in
       let h = Builders.path 3 in
       let b = Budget.unlimited in
       let tw_ok =
         match Exact.treewidth_budgeted ~budget:b g with
         | `Exact w -> w = Exact.treewidth g
         | `Degraded _ | `Exhausted _ -> false
       in
       let brute_ok =
         match Brute.count_budgeted ~budget:b h g with
         | `Exact v -> v = Brute.count h g
         | `Degraded _ | `Exhausted _ -> false
       in
       let td_ok =
         match Td_count.count_budgeted ~budget:b h g with
         | `Exact v -> Bigint.equal v (Td_count.count h g)
         | `Degraded _ | `Exhausted _ -> false
       in
       let kwl_ok =
         match Kwl.run_budgeted ~budget:b 2 g with
         | `Exact r ->
           let plain = Kwl.run 2 g in
           r.Kwl.colours = plain.Kwl.colours
           && r.Kwl.num_colours = plain.Kwl.num_colours
           && r.Kwl.rounds = plain.Kwl.rounds
         | `Degraded _ | `Exhausted _ -> false
       in
       tw_ok && brute_ok && td_ok && kwl_ok)

(* ------------------------------------------------------------------ *)
(* Parser fuzzing: random bytes must come back as Ok/Error, never as   *)
(* an escaped exception                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_input =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(
      let any_byte = map Char.chr (int_range 0 255) in
      let structured =
        oneofl
          [ "("; ")"; ":="; "exists"; "."; "&"; "E"; ","; "|"; ";"; "-";
            ">"; "edges"; "labels"; "x1"; "0"; "-0x1"; "9999999999999999999";
            " "; "cycle:"; "gnp:"; "\x00"; "\xff" ]
      in
      map (String.concat "")
        (list_size (int_bound 12)
           (oneof [ structured; map (String.make 1) any_byte ])))

let total name f =
  qtest ~count:400 name fuzz_input (fun s ->
      match f s with _ -> true)

let fuzz_parsers =
  [
    total "Parser.parse total" Parser.parse;
    total "Parser.parse_union total" Parser.parse_union;
    total "Ucq.of_string total" Ucq.of_string;
    total "Kparser.parse total" (fun s -> Kparser.parse s);
    total "Spec.parse total" Spec.parse;
    total "Kspec.parse total" Kspec.parse;
  ]

(* ------------------------------------------------------------------ *)

let () =
  Obs.set_enabled true;
  Alcotest.run "robust"
    [
      ( "budget",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "trip latch" `Quick test_trip_latch;
          Alcotest.test_case "cancellation" `Quick test_cancellation;
          Alcotest.test_case "deadline trips" `Quick test_deadline_trips;
          Alcotest.test_case "remaining_ns" `Quick test_remaining_ns;
          Alcotest.test_case "unlimited inert" `Quick test_unlimited_inert;
          Alcotest.test_case "fork" `Quick test_fork;
          Alcotest.test_case "tick interval" `Quick test_tick_interval_poll;
          Alcotest.test_case "memory ceiling" `Quick test_memory_ceiling;
        ] );
      ( "fault",
        [
          Alcotest.test_case "arm/disarm" `Quick test_fault_arm_disarm;
          Alcotest.test_case "determinism" `Quick test_fault_determinism;
          Alcotest.test_case "trips budgets" `Quick test_fault_trips_budgets;
        ] );
      ( "ladders",
        [
          Alcotest.test_case "treewidth" `Quick test_treewidth_ladder;
          Alcotest.test_case "partial counts" `Quick test_partial_count_ladders;
          Alcotest.test_case "td_count" `Quick test_td_count_ladder;
          Alcotest.test_case "nice_count" `Quick test_nice_count_ladder;
          Alcotest.test_case "td spawn demotion" `Quick test_td_spawn_demotion;
          Alcotest.test_case "kwl" `Quick test_kwl_ladder;
          Alcotest.test_case "kwl spawn demotion" `Quick
            test_kwl_spawn_demotion;
          Alcotest.test_case "cfi/cloning" `Quick test_cfi_cloning_ladder;
          Alcotest.test_case "dimension interval" `Quick
            test_dimension_interval;
          Alcotest.test_case "fast_count" `Quick test_fast_count_ladder;
          Alcotest.test_case "kg" `Quick test_kg_ladder;
        ] );
      ( "postmortem",
        [
          Alcotest.test_case "injected DP fault dumps the journal" `Quick
            test_postmortem_td_fault;
          Alcotest.test_case "kwl budget trip dumps the journal" `Quick
            test_postmortem_kwl_trip;
          Alcotest.test_case "spawn demotion dumps the journal" `Quick
            test_postmortem_spawn_demotion;
        ] );
      ( "responsiveness",
        [
          Alcotest.test_case "1 ms deadlines" `Quick
            test_deadline_responsiveness;
        ] );
      ( "properties",
        [
          prop_brute_containment;
          prop_treewidth_containment;
          prop_td_count_containment;
          prop_dimension_containment;
          prop_budget_off_identical;
        ] );
      ("fuzz", fuzz_parsers);
    ]
