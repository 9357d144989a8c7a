(* wlbench: the standing benchmark for [wlcq serve] and the one-shot
   CLI.  Usage (from the root of a checkout, after building
   bin/wlcq.exe and wlbench/peak_rss.exe, as run.py does):

     wlbench.exe --workload W --seed N --seconds S --trace 0|1
                 [--quick] [--plant-wrong]

   Workloads (both closed loops; see BENCHMARK.json for why each
   exists):
   - serve-repeat: 2 connections, daemon --workers 2, Zipf-popular
     relabelled resubmissions of a 40-problem pool;
   - cli-oneshot: one [wlcq ans|wl|tw] process at a time over a stream
     in which every problem is new.

   The last line of stdout is the result object (correct, attempted,
   failed, metrics); the line before it is the run's report (provenance, host noise, per-op
   tallies and workload properties). *)

module Wire = Wlcq_serve.Wire
module Obs = Wlcq_obs.Obs
module Json = Wlcq_strictjson.Strict_json
open Problems

exception Bench_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt

type workload = Repeat | Oneshot

let workload_names = [ ("serve-repeat", Repeat); ("cli-oneshot", Oneshot) ]
let workload_name w = fst (List.find (fun (_, x) -> x = w) workload_names)

type cfg = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;  (** a few requests per phase: the benchmark's self-test *)
  plant_wrong : bool;  (** corrupt one expected answer (self-test) *)
  exe : string;
  probe : string;  (** the peak_rss spawner *)
  root : string;
  work : string;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let quick = ref false and plant = ref false in
  let specs =
    [ ("--workload", Arg.String (fun s -> workload := Some s), "NAME");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N");
      ("--seconds", Arg.Float (fun f -> seconds := Some f), "S");
      ("--trace", Arg.Int (fun n -> trace := Some n), "0|1");
      ("--quick", Arg.Set quick, " self-test: a few requests per phase");
      ("--plant-wrong", Arg.Set plant, " corrupt one expected answer") ]
  in
  let usage = "wlbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let need name = function Some v -> v | None -> fail "missing %s (%s)" name usage in
  let wname = need "--workload" !workload in
  let workload =
    match List.assoc_opt wname workload_names with
    | Some w -> w
    | None -> fail "unknown workload %S" wname
  in
  let seconds = need "--seconds" !seconds in
  if not (seconds > 0.0) then fail "--seconds must be positive";
  let trace =
    match need "--trace" !trace with 0 -> false | 1 -> true | _ -> fail "--trace takes 0 or 1"
  in
  let root = Sys.getcwd () in
  let built path =
    let f = Filename.concat root path in
    if not (Sys.file_exists f) then fail "%s not found: build it first (run.py does)" f;
    f
  in
  let exe = built "_build/default/bin/wlcq.exe" and probe = built "_build/default/wlbench/peak_rss.exe" in
  { workload; seed = need "--seed" !seed; seconds; trace; quick = !quick; plant_wrong = !plant;
    exe; probe; root; work = Filename.concat root ".wlbench" }

let now = Obs.now_ns
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

(* progress on stderr, stamped with seconds since start *)
let started = now ()
let note fmt = Printf.ksprintf (fun s -> Printf.eprintf "wlbench: [%6.1fs] %s\n%!" (ms_between started (now ()) /. 1e3) s) fmt

(* Daemons and a one-shot child still running at exit are killed and
   reaped, whatever path the run took to get there. *)
let live_daemons : Loadgen.daemon list ref = ref []

let () =
  at_exit (fun () ->
      List.iter Loadgen.kill !live_daemons;
      live_daemons := [];
      Oneshot.kill_running ());
  (* a run stopped from outside still reaps its daemon *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ]

(* ------------------------------------------------------------------ *)
(* Answers                                                              *)
(* ------------------------------------------------------------------ *)

type tally = { mutable sent : int; mutable ok : int; mutable failed : int }

type recorder = {
  lat : Stats.buf;  (** ms, correct replies only *)
  lat_op : Stats.buf array;  (** per {!Problems.kind_index} *)
  tally : tally array;
  mutable degraded : int;
  mutable deferred : (Loadgen.req * string) list;  (** value to check later *)
  mutable last_ns : int64;
  mutable failures : string list;  (** first few, for stderr *)
  mutable stamps : (int * Loadgen.stamps) list;  (** traced phases only *)
  keep_stamps : bool;
  mutable phase_start : int64;
  windows : (int, int * int64) Hashtbl.t;
      (** per second of the phase: correct replies, and the last one's time *)
}

let recorder ?(keep_stamps = false) () =
  { lat = Stats.buf (); lat_op = Array.init 4 (fun _ -> Stats.buf ());
    tally = Array.init 4 (fun _ -> { sent = 0; ok = 0; failed = 0 });
    degraded = 0; deferred = []; last_ns = 0L; failures = []; stamps = [];
    keep_stamps; phase_start = now (); windows = Hashtbl.create 64 }

let answered r = Array.fold_left (fun a t -> a + t.ok) 0 r.tally
let failed r = Array.fold_left (fun a t -> a + t.failed) 0 r.tally
let sent r = Array.fold_left (fun a t -> a + t.sent) 0 r.tally

let note_failure r (req : Loadgen.req) msg =
  let t = r.tally.(kind_index req.kind) in
  t.failed <- t.failed + 1;
  if List.length r.failures < 5 then
    r.failures <- Printf.sprintf "%s %s: %s" req.id (kind_name req.kind) msg :: r.failures

(* One finished operation: [value] is the reply's value when its status
   was ok, [lat_ms] the latency the client saw. *)
let record r (req : Loadgen.req) ~lat_ms ~t_end (value : (string, string) result) =
  let t = r.tally.(kind_index req.kind) in
  t.sent <- t.sent + 1;
  r.last_ns <- t_end;
  let ok () =
    t.ok <- t.ok + 1;
    let w = Int64.to_int (Int64.div (Int64.sub t_end r.phase_start) 1_000_000_000L) in
    let k, _ = Option.value ~default:(0, 0L) (Hashtbl.find_opt r.windows w) in
    Hashtbl.replace r.windows w (k + 1, t_end);
    Stats.push r.lat lat_ms;
    Stats.push r.lat_op.(kind_index req.kind) lat_ms
  in
  match (value, req.expected) with
  | Error msg, _ -> note_failure r req msg
  | Ok v, Some e -> if String.equal v e then ok () else note_failure r req (Printf.sprintf "got %s, expected %s" v e)
  | Ok v, None ->
    r.deferred <- (req, v) :: r.deferred;
    ok ()

let on_reply r (rep : Loadgen.reply) =
  let s = rep.Loadgen.stamps in
  if r.keep_stamps then r.stamps <- (rep.Loadgen.req.Loadgen.index, s) :: r.stamps;
  let value =
    match rep.Loadgen.response with
    | Error msg -> Error msg
    | Ok resp ->
      if resp.Wire.r_status = Wire.Degraded || resp.Wire.r_status = Wire.Exhausted then
        r.degraded <- r.degraded + 1;
      if not (String.equal resp.Wire.r_id rep.Loadgen.req.Loadgen.id) then
        Error ("reply id " ^ resp.Wire.r_id)
      else if resp.Wire.r_status <> Wire.Ok_ then
        Error (Wire.status_to_string resp.Wire.r_status ^ ": " ^ resp.Wire.r_detail)
      else Ok resp.Wire.r_value
  in
  record r rep.Loadgen.req ~lat_ms:(ms_between s.Loadgen.t_start s.Loadgen.t_decoded)
    ~t_end:s.Loadgen.t_decoded value

(* ------------------------------------------------------------------ *)
(* Streams and their truths                                             *)
(* ------------------------------------------------------------------ *)

let disagreements = ref []

(* The slowest in-process run of the route the daemon serves: every
   problem must stay ten times under the daemon's 5 s default
   deadline, so no run of the benchmark is a run of budget trips. *)
let slowest_served_ms = ref 0.0
let deadline_tenth_ms = 500.0

(* [first] is the stream position of [truths.(0)] *)
let check_agree ?(first = 0) name truths =
  Array.iteri
    (fun i (t : Truth.t) ->
       slowest_served_ms := Float.max !slowest_served_ms t.Truth.served_route_ms;
       if not t.Truth.agree then disagreements := Printf.sprintf "%s[%d]" name (first + i) :: !disagreements)
    truths

(* Problems and truths of a distinct stream, extended on demand (always
   outside a timed phase); every truth is checked for agreement as it
   is computed. *)
type store = { st_tag : string; st_seed : int; mutable probs : problem array; mutable truths : Truth.t array }

let store ~seed tag = { st_tag = tag; st_seed = seed; probs = [||]; truths = [||] }

let ensure st n =
  let have = Array.length st.truths in
  if n > have then begin
    let probs = Array.init (n - have) (fun j -> Problems.distinct ~seed:st.st_seed ~tag:st.st_tag (have + j)) in
    let truths = Truth.compute_all probs in
    check_agree ~first:have st.st_tag truths;
    st.probs <- Array.append st.probs probs;
    st.truths <- Array.append st.truths truths
  end

(* A stream maps a position to a request; [planted] corrupts the
   expected answer of position 0. *)
let make_req ~prefix ~planted i kind op expected =
  let expected = if planted && i = 0 then Option.map (fun e -> e ^ "-planted") expected else expected in
  { Loadgen.id = Printf.sprintf "%s%d" prefix i; index = i; kind; op; expected }

let distinct_stream st ~prefix ~planted i =
  let prob, expected =
    if i < Array.length st.truths then (st.probs.(i), Some st.truths.(i).Truth.expected)
    else (Problems.distinct ~seed:st.st_seed ~tag:st.st_tag i, None)
  in
  make_req ~prefix ~planted i (kind_of prob) (render (rng_at ~seed:st.st_seed (st.st_tag ^ "-render") i) prob) expected

let repeat_stream ~seed ~pool ~truths ~cdf ~prefix ~planted i =
  let rng = rng_at ~seed "repeat" i in
  let slot = zipf_rank cdf rng in
  make_req ~prefix ~planted i (kind_of pool.(slot)) (render rng pool.(slot)) (Some truths.(slot).Truth.expected)

(* Deferred replies (positions beyond the precomputed prefix) are
   checked once their truths exist. *)
let settle st r =
  match r.deferred with
  | [] -> ()
  | d ->
    let hi = List.fold_left (fun m ((q : Loadgen.req), _) -> max m (q.Loadgen.index + 1)) 0 d in
    ensure st hi;
    List.iter
      (fun ((q : Loadgen.req), v) ->
         let e = st.truths.(q.Loadgen.index).Truth.expected in
         if not (String.equal v e) then begin
           let t = r.tally.(kind_index q.Loadgen.kind) in
           t.ok <- t.ok - 1;
           note_failure r q (Printf.sprintf "got %s, expected %s" v e)
         end)
      d;
    r.deferred <- []

(* ------------------------------------------------------------------ *)
(* Phases                                                               *)
(* ------------------------------------------------------------------ *)

(* When a phase ends: after [seconds], once at least [min_samples]
   correct replies are in (so p99 has ten samples beyond it), and in
   any case after three times [seconds]. *)
type until = { t_end : int64; t_hard : int64; min_samples : int; max_requests : int }

let until cfg =
  let t0 = now () in
  let ns s = Int64.add t0 (Int64.of_float (s *. 1e9)) in
  if cfg.quick then { t_end = t0; t_hard = ns 60.0; min_samples = 12; max_requests = 12 }
  else { t_end = ns cfg.seconds; t_hard = ns (3.0 *. cfg.seconds); min_samples = 1000; max_requests = max_int }

let should_stop u r issued =
  issued >= u.max_requests
  || (let t = now () in
      t >= u.t_hard || (t >= u.t_end && answered r >= u.min_samples))

type phase = {
  wall_s : float;
  cpu_s : float;  (** daemon (or one-shot children) user+sys CPU *)
  rss_mb : float;
  noise : Host.noise;
}

type system = { daemon : Loadgen.daemon; conns : Loadgen.conn array }

let socket_name = "wlcq.sock"

(* serve-repeat's shape: two workers share the tier's mutex and one
   heap, driven by two connections with one request outstanding each
   (at most nproc = 2, so the generator never oversubscribes the
   host) *)
let serve_workers = 2
let serve_conns = 2

let run_serve conns r ~stream ~stop =
  let i = ref 0 in
  let next () =
    if stop !i then None
    else begin
      let q = stream !i in
      incr i;
      Some q
    end
  in
  Loadgen.drive conns ~next ~on_reply:(on_reply r)

(* Spawn a daemon and warm it up; returns the system and the set-up
   time in seconds (spawn to end of warm-up). *)
let start_serve cfg ~metrics_out ~warm ~n_warm r =
  let t0 = now () in
  let d =
    Loadgen.spawn ~exe:cfg.exe ~socket:socket_name ~workers:serve_workers
      ~metrics_out ~log:"daemon.log"
  in
  live_daemons := d :: !live_daemons;
  match Loadgen.await_ready d with
  | None -> fail "daemon did not start (see .wlbench/daemon.log)"
  | Some fd ->
    let conns =
      Array.init serve_conns (fun i ->
          if i = 0 then Loadgen.conn fd
          else
            match Loadgen.try_connect socket_name with
            | Some fd -> Loadgen.conn fd
            | None -> fail "second connection refused")
    in
    run_serve conns r ~stream:warm ~stop:(fun i -> i >= n_warm);
    ({ daemon = d; conns }, ms_between t0 (now ()) /. 1e3)

(* SIGTERM drain: the exit code and whether the socket was removed. *)
let stop_serve sys =
  Array.iter Loadgen.close_conn sys.conns;
  let code = Loadgen.stop sys.daemon in
  live_daemons := List.filter (fun d -> d != sys.daemon) !live_daemons;
  (code, not (Sys.file_exists sys.daemon.Loadgen.socket))

let measure_serve cfg sys r ~stream =
  let probe_before_s = Host.probe () in
  let pid = sys.daemon.Loadgen.pid in
  let stat0 = Host.proc_stat () and self0 = Host.self_cpu_s () in
  let cpu0 = Option.value ~default:0.0 (Host.proc_cpu_s pid) in
  let t0 = now () in
  r.phase_start <- t0;
  let u = until cfg in
  run_serve sys.conns r ~stream ~stop:(should_stop u r);
  let wall_s = ms_between t0 r.last_ns /. 1e3 in
  let cpu1 = Option.value ~default:cpu0 (Host.proc_cpu_s pid) in
  let stat1 = Host.proc_stat () and self1 = Host.self_cpu_s () in
  let rss_mb = Option.value ~default:0.0 (Host.vm_hwm_mb pid) in
  let probe_after_s = Host.probe () in
  let cpu_s = cpu1 -. cpu0 in
  { wall_s; cpu_s; rss_mb;
    noise = Host.noise ~before:stat0 ~after:stat1 ~ours_s:(cpu_s +. self1 -. self0)
        ~probe_before_s ~probe_after_s }

(* One-shot phases: one process at a time. *)
let run_oneshot ?after_proc cfg r ~stream ~stop ~metrics_out =
  let i = ref 0 in
  while not (stop !i) do
    let q = stream !i in
    incr i;
    let t0 = now () in
    let res = Oneshot.execute ~exe:cfg.exe ?metrics_out ?after_proc q.Loadgen.op in
    let t1 = now () in
    if List.exists (fun p -> p.Oneshot.code = 3) res.Oneshot.procs then r.degraded <- r.degraded + 1;
    record r q ~lat_ms:(ms_between t0 t1) ~t_end:t1 res.Oneshot.value
  done

(* A one-shot process's peak RSS: the median over the processes of the
   phase's first cycle of the op mix, rerun after the phase
   through the peak_rss spawner, so the footprint is that of a typical
   invocation and not the benchmark's own (see peak_rss.c). *)
let oneshot_rss_mb cfg ~stream ~issued =
  let kb = Stats.buf () in
  for i = 0 to min issued (Array.length Problems.schedule) - 1 do
    List.iter
      (function Ok k -> Stats.push kb (float_of_int k) | Error msg -> fail "%s" msg)
      (Oneshot.peak_rss_kb ~probe:cfg.probe ~exe:cfg.exe (stream i).Loadgen.op)
  done;
  Stats.median (Stats.contents kb) /. 1024.0

let measure_oneshot ?after_proc cfg r ~stream ~metrics_out =
  let probe_before_s = Host.probe () in
  let stat0 = Host.proc_stat () and self0 = Host.self_cpu_s () and kids0 = Host.children_cpu_s () in
  let t0 = now () in
  r.phase_start <- t0;
  let u = until cfg in
  run_oneshot ?after_proc cfg r ~stream ~stop:(should_stop u r) ~metrics_out;
  let wall_s = ms_between t0 r.last_ns /. 1e3 in
  let stat1 = Host.proc_stat () and self1 = Host.self_cpu_s () and kids1 = Host.children_cpu_s () in
  let probe_after_s = Host.probe () in
  let cpu_s = kids1 -. kids0 in
  { wall_s; cpu_s; rss_mb = oneshot_rss_mb cfg ~stream ~issued:(sent r);
    noise = Host.noise ~before:stat0 ~after:stat1 ~ours_s:(cpu_s +. self1 -. self0)
        ~probe_before_s ~probe_after_s }

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let p50 b = Stats.median (Stats.contents b)

(* Throughput as the median over the phase's whole seconds of each
   second's rate: its correct replies divided by the time from the
   previous second's last reply to its own last one (so the rates
   partition the phase exactly).  The host's bursts of CPU steal move
   a mean over the phase, but not the median second.  Phases shorter
   than two seconds (the self-test) fall back to the mean. *)
let throughput r ~wall_s =
  let whole = int_of_float wall_s in
  if whole < 2 then float_of_int (answered r) /. wall_s
  else begin
    let prev = ref r.phase_start in
    Stats.median
      (Array.init whole (fun w ->
           match Hashtbl.find_opt r.windows w with
           | None -> 0.0
           | Some (k, last) ->
             let rate = float_of_int k /. (ms_between !prev last /. 1e3) in
             prev := last;
             rate))
  end

let end_to_end ~setup_s ~phase r =
  let n = answered r in
  let lat = Stats.contents r.lat in
  [ ("setup_s", setup_s, "s");
    ("throughput_rps", throughput r ~wall_s:phase.wall_s, "1/s");
    ("latency_p50_ms", Stats.median lat, "ms");
    ("latency_p99_ms", Stats.quantile lat 0.99, "ms");
    ("count_p50_ms", p50 r.lat_op.(kind_index Count), "ms");
    ("batch_p50_ms", p50 r.lat_op.(kind_index Batch), "ms");
    ("decide_p50_ms", p50 r.lat_op.(kind_index Decide), "ms");
    ("treewidth_p50_ms", p50 r.lat_op.(kind_index Treewidth), "ms");
    ("cpu_ms_per_req", phase.cpu_s *. 1e3 /. float_of_int (max 1 n), "ms");
    ("peak_rss_mb", phase.rss_mb, "MiB") ]

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Json.add_string b s;
  Buffer.contents b

let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let metrics_json ms =
  json_obj (List.map (fun (n, v, u) -> (n, json_obj [ ("value", num v); ("unit", json_string u) ])) ms)

let tally_json recs =
  json_obj
    (List.map
       (fun k ->
          let i = kind_index k in
          let s f = string_of_int (List.fold_left (fun a r -> a + f r.tally.(i)) 0 recs) in
          (kind_name k, json_obj [ ("sent", s (fun t -> t.sent)); ("answered", s (fun t -> t.ok)); ("failed", s (fun t -> t.failed)) ]))
       kinds)

let noise_json (n : Host.noise) =
  json_obj
    [ ("steal_share", num n.Host.steal_share); ("other_tenant_share", num n.Host.other_share);
      ("probe_before_s", num n.Host.probe_before_s); ("probe_after_s", num n.Host.probe_after_s) ]

(* ------------------------------------------------------------------ *)
(* Workload properties                                                  *)
(* ------------------------------------------------------------------ *)

(* Shares over the measured requests: graphs beyond the cache's
   24-vertex canonicalisation gate, count instances on each side of
   the enumeration/DP crossover (whichever in-process route was faster
   when the truths were computed), and reuse: requests whose problem
   (up to isomorphism within the gate, see {!Problems.key}) was already
   sent earlier in the run, warm-up included. *)
type props = { over_gate : float; dp_faster : float; enum_faster : float; reuse : float }

let props_json p =
  json_obj
    [ ("share_over_24_vertices", num p.over_gate); ("count_share_dp_faster", num p.dp_faster);
      ("count_share_enum_faster", num p.enum_faster); ("reuse_rate", num p.reuse) ]

let props ~(warm : problem array) ~(probs : int -> problem) ~(truth : int -> Truth.t) n =
  let seen = Hashtbl.create 1024 in
  Array.iter (fun p -> Hashtbl.replace seen (key p) ()) warm;
  let over = ref 0 and dp = ref 0 and en = ref 0 and reuse = ref 0 in
  for i = 0 to n - 1 do
    let p = probs i in
    let k = key p in
    if max_vertices p > gate then incr over;
    if Hashtbl.mem seen k then incr reuse else Hashtbl.replace seen k ();
    match p with
    | P_count _ | P_batch _ ->
      let t = truth i in
      if t.Truth.dp_ms < t.Truth.enum_ms then incr dp else incr en
    | _ -> ()
  done;
  let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  { over_gate = share !over n; dp_faster = share !dp (!dp + !en); enum_faster = share !en (!dp + !en);
    reuse = share !reuse n }

(* ------------------------------------------------------------------ *)
(* The run                                                              *)
(* ------------------------------------------------------------------ *)

let setup_reps cfg = if cfg.quick then 1 else 7

(* priming set for the distinct stream: two cycles of the op mix, the
   same in every run (drawn from the pool's seed), from a stream of
   their own so they never recur in the measured phase *)
let n_prime cfg = if cfg.quick then 4 else 2 * Array.length Problems.schedule

type outcome = {
  metrics : (string * float * string) list;
  recs : recorder list;
  phase : phase;
  props : props;
  drain_ok : bool;
  extra : (string * string) list;  (** report-only fields *)
}

let flush_timeout_s = 10.0

let sighup d = try Unix.kill d.Loadgen.pid Sys.sighup with Unix.Unix_error _ -> ()

(* The traced daemon's snapshot, after a SIGHUP-forced flush. *)
let hup_snapshot d =
  let file = Option.get d.Loadgen.metrics_out in
  let after = match Layers.load file with Some s -> Layers.counter s "serve.flushes" | None -> 0 in
  sighup d;
  match Layers.flushed ~file ~after ~timeout_s:flush_timeout_s with
  | Some s -> s
  | None -> fail "daemon did not rewrite its --metrics-out snapshot after SIGHUP"

(* Ping round trips, one at a time, on the idle daemon. *)
let ping_rtt_us sys ~n =
  let rtts = Stats.buf () in
  let next = ref 0 in
  Loadgen.drive [| sys.conns.(0) |]
    ~next:(fun () ->
        incr next;
        if !next > n then None
        else Some { Loadgen.id = Printf.sprintf "p%d" !next; index = !next; kind = Count; op = Wire.Ping;
                    expected = Some "pong" })
    ~on_reply:(fun rep ->
        match rep.Loadgen.response with
        | Ok resp when resp.Wire.r_status = Wire.Ok_ ->
          let s = rep.Loadgen.stamps in
          Stats.push rtts (ms_between s.Loadgen.t_start s.Loadgen.t_decoded *. 1e3)
        | _ -> fail "ping failed");
  Stats.median (Stats.contents rtts)

let spans_file cfg = Printf.sprintf "%s-s%d-spans.jsonl" (workload_name cfg.workload) cfg.seed

(* Generator spans, kept in memory during the phase and written at the
   end: one [request] span per exchange, with its client-side stages as
   children. *)
let write_spans cfg (r : recorder) =
  let oc = open_out (spans_file cfg) in
  List.iter
    (fun (i, (s : Loadgen.stamps)) ->
       let span name parent a b =
         Printf.fprintf oc
           "{\"req\": %d, \"name\": %S, \"parent\": %s, \"start_ns\": %Ld, \"end_ns\": %Ld}\n" i name
           (match parent with None -> "null" | Some p -> Printf.sprintf "%S" p) a b
       in
       span "request" None s.Loadgen.t_start s.Loadgen.t_decoded;
       span "encode" (Some "request") s.Loadgen.t_start s.Loadgen.t_encoded;
       span "write" (Some "request") s.Loadgen.t_encoded s.Loadgen.t_written;
       span "wait" (Some "request") s.Loadgen.t_written s.Loadgen.t_first_read;
       span "read" (Some "request") s.Loadgen.t_first_read s.Loadgen.t_framed;
       span "decode" (Some "request") s.Loadgen.t_framed s.Loadgen.t_decoded)
    (List.rev r.stamps);
  close_out oc

(* Requests of the measured phase, for the replay (at most [cap]). *)
let replay_reqs ~stream ~issued ~cap =
  List.filter_map
    (fun i ->
       let q : Loadgen.req = stream i in
       Option.map
         (fun e -> ({ Wire.id = q.Loadgen.id; deadline_ms = None; max_live_mb = None; op = q.Loadgen.op }, e))
         q.Loadgen.expected)
    (List.init (min issued cap) Fun.id)

let per_req n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

(* Per-layer metrics.  Counters come from the served side's snapshot
   delta [s] over the traced phase (the daemon's, or the one-shot
   processes' summed): totals for failure accounting ([serve.*],
   evictions, deadline hits, and [cache.bytes], the tier's growth),
   per request of the op that drives them otherwise ([1/req]).  Times
   in [_us]/[_ms] come from the replay; [serve.*_ms_mean] from the
   daemon's exact histogram sums.  Layers absent from a workload's
   path (the daemon on cli-oneshot) read 0. *)
let per_layer ~s ~(rp : Layers.replay) ~(r : recorder) ~traced_rps ~untraced_rps ~ping_us
    ~service_ms ~startup_ms =
  let c = Layers.counter s in
  let n = answered r + failed r in
  let count_reqs = r.tally.(kind_index Count).sent + r.tally.(kind_index Batch).sent in
  let decide_reqs = r.tally.(kind_index Decide).sent and tw_reqs = r.tally.(kind_index Treewidth).sent in
  let hits = c "cache.hit" and misses = c "cache.miss" in
  let client_ms = Stats.mean (Stats.contents r.lat) in
  [ ("wire.request_bytes", rp.Layers.request_bytes, "bytes");
    ("wire.encode_request_us", rp.Layers.encode_request_us, "us");
    ("wire.decode_request_us", rp.Layers.decode_request_us, "us");
    ("wire.encode_response_us", rp.Layers.encode_response_us, "us");
    ("wire.decode_response_us", rp.Layers.decode_response_us, "us");
    ("serve.ping_rtt_us", ping_us, "us");
    ("serve.service_ms_mean", service_ms, "ms");
    ("serve.outside_ms_mean", (if service_ms > 0.0 then client_ms -. service_ms else 0.0), "ms");
    ("serve.requests", float_of_int (c "serve.requests"), "count");
    ("serve.shed", float_of_int (c "serve.shed"), "count");
    ("serve.malformed", float_of_int (c "serve.malformed"), "count");
    ("serve.worker_contained", float_of_int (c "serve.worker.contained"), "count");
    ("spec.parse_us", rp.Layers.spec_parse_us, "us");
    ("parser.parse_us", rp.Layers.parser_parse_us, "us");
    ("iso.canonical_form_us", rp.Layers.canonical_form_us, "us");
    ("cache.address_us", rp.Layers.address_us, "us");
    ("cache.hit_ratio", per_req hits (hits + misses), "ratio");
    ("cache.canon_fallback_ratio", per_req (c "cache.canon_fallback") (hits + misses), "ratio");
    ("cache.evictions", float_of_int (c "cache.eviction"), "count");
    ("cache.bytes", float_of_int (c "cache.bytes"), "bytes");
    ("dispatch.chose_enum", per_req (c "dispatch.chose_enum") count_reqs, "1/req");
    ("dispatch.chose_packed", per_req (c "dispatch.chose_packed") count_reqs, "1/req");
    ("dispatch.chose_brute", per_req (c "dispatch.chose_brute") count_reqs, "1/req");
    ("engine.count_enum_ms", rp.Layers.count_enum_ms, "ms");
    ("engine.count_dp_ms", rp.Layers.count_dp_ms, "ms");
    ("engine.count_served_ms", Layers.hist_mean s "entry.cq.count_answers.wall_ns" /. 1e6, "ms");
    ("fast_count.dp_entries", per_req (c "fast_count.dp_entries") count_reqs, "1/req");
    ("td_count.dp_entries", per_req (c "td_count.dp_entries") count_reqs, "1/req");
    ("engine.decide_ms", rp.Layers.decide_ms, "ms");
    ("kwl.rounds", per_req (c "kwl.rounds") decide_reqs, "1/req");
    ("kwl.dirty_tuples", per_req (c "kwl.dirty_tuples") decide_reqs, "1/req");
    ("engine.treewidth_ms", rp.Layers.treewidth_ms, "ms");
    ("tw.search_nodes", per_req (c "tw.search_nodes") tw_reqs, "1/req");
    ("tw.pruned", per_req (c "tw.pruned") tw_reqs, "1/req");
    ("robust.degraded_share", per_req r.degraded n, "ratio");
    ("robust.budget.deadline_hits", float_of_int (c "robust.budget.deadline_hits"), "count");
    ("cli.startup_ms", startup_ms, "ms");
    ("obs.traced_throughput_rps", traced_rps, "1/s");
    ("obs.untraced_throughput_rps", untraced_rps, "1/s") ]

let run cfg =
  let seed = cfg.seed in
  let planted = cfg.plant_wrong in
  (* the cache tier only serves the replay's address probes; truths and
     engine replays run uncached *)
  let cache_capacity = (Wlcq_cache.Cache.stats ()).Wlcq_cache.Cache.capacity_words in
  Wlcq_cache.Cache.set_capacity_mb 0;
  let warm_rec = recorder () in
  let st = store ~seed "distinct" in
  (* the workload's streams: warm-up and measured *)
  let n_warm, warm, stream, prepare, props_of =
    match cfg.workload with
    | Repeat ->
      let pool = Problems.pool () in
      let pool = if cfg.quick then Array.sub pool 0 6 else pool in
      let truths = Truth.compute_all pool in
      check_agree "pool" truths;
      let cdf = zipf_cdf (Array.length pool) in
      let warm i =
        make_req ~prefix:"w" ~planted:false i (kind_of pool.(i)) (render (rng_at ~seed "warm" i) pool.(i))
          (Some truths.(i).Truth.expected)
      in
      let stream = repeat_stream ~seed ~pool ~truths ~cdf ~prefix:"m" ~planted in
      let slot i = zipf_rank cdf (rng_at ~seed "repeat" i) in
      let props_of n =
        props ~warm:pool ~probs:(fun i -> pool.(slot i)) ~truth:(fun i -> truths.(slot i)) n
      in
      (Array.length pool, warm, stream, (fun ~rate:_ -> ()), props_of)
    | Oneshot ->
      let prime = store ~seed:Problems.pool_seed "prime" in
      let np = n_prime cfg in
      ensure prime np;
      let warm = distinct_stream prime ~prefix:"w" ~planted:false in
      let stream = distinct_stream st ~prefix:"m" ~planted in
      (* truths for the expected length of the measured phase, from the
         warm-up rate; positions beyond it are checked after the phase *)
      let prepare ~rate =
        let n = if cfg.quick then 16 else int_of_float (1.25 *. rate *. cfg.seconds) + 40 in
        ensure st n
      in
      let props_of n =
        ensure st n;
        props ~warm:prime.probs ~probs:(fun i -> st.probs.(i)) ~truth:(fun i -> st.truths.(i)) n
      in
      (np, warm, stream, prepare, props_of)
  in
  let settle r = settle st r in
  (* --- set-up, repeated: the first half of the repeats runs before
     the measured phase (the last of them is the system measured), the
     rest after it, so a few seconds of host slowdown cannot move every
     repeat --- *)
  let setups = ref [] in
  let set_up ~keep =
    match cfg.workload with
    | Repeat ->
      let sys, s = start_serve cfg ~metrics_out:None ~warm ~n_warm warm_rec in
      setups := s :: !setups;
      if keep then Some sys
      else begin
        let code, _ = stop_serve sys in
        if code <> 0 then fail "daemon exited %d after set-up" code;
        None
      end
    | Oneshot ->
      let t0 = now () in
      run_oneshot cfg warm_rec ~stream:warm ~stop:(fun i -> i >= n_warm) ~metrics_out:None;
      setups := (ms_between t0 (now ()) /. 1e3) :: !setups;
      None
  in
  let reps = if cfg.trace then 1 else setup_reps cfg in
  let before = (reps + 1) / 2 in
  for _ = 2 to before do
    ignore (set_up ~keep:false)
  done;
  let serve_sys = set_up ~keep:true in
  (* the closed loop's rate over the warm-up requests *)
  let warm_lat = Stats.contents warm_rec.lat in
  let warm_busy_s = Array.fold_left ( +. ) 0.0 warm_lat /. 1e3 in
  prepare ~rate:(if warm_busy_s > 0.0 then float_of_int (Array.length warm_lat) /. warm_busy_s else 0.0);
  note "truths ready";
  Gc.compact ();
  (* --- the untraced measured phase --- *)
  let r = recorder () in
  let phase, drain =
    match serve_sys with
    | Some sys ->
      let p = measure_serve cfg sys r ~stream in
      let drain = stop_serve sys in
      (p, drain)
    | None -> (measure_oneshot cfg r ~stream ~metrics_out:None, (0, true))
  in
  for _ = before + 1 to reps do
    ignore (set_up ~keep:false)
  done;
  let setup_s = Stats.median (Array.of_list !setups) in
  note "set-up %d times, median %.3fs" (List.length !setups) setup_s;
  settle r;
  note "measured %d requests in %.1fs" (sent r) phase.wall_s;
  let issued = sent r in
  let props = props_of issued in
  let e2e = end_to_end ~setup_s ~phase r in
  let drain_code, socket_removed = drain in
  let drain_ok = drain_code = 0 && socket_removed in
  if not cfg.trace then
    { metrics = e2e; recs = [ warm_rec; r ]; phase; props; drain_ok;
      extra = [ ("daemon_exit", string_of_int drain_code); ("socket_removed", string_of_bool socket_removed);
                ("samples", string_of_int (Stats.(r.lat.len)));
                ("throughput_mean_rps", num (float_of_int (answered r) /. phase.wall_s));
                ("setups_s", "[" ^ String.concat ", " (List.rev_map num !setups) ^ "]") ] }
  else begin
    (* --- the traced run: same workload and seed --- *)
    let untraced_rps = throughput r ~wall_s:phase.wall_s in
    let tr = recorder ~keep_stamps:true () in
    let tw = recorder () in
    let snap_file = Filename.concat cfg.work (workload_name cfg.workload ^ ".om") in
    (try Sys.remove snap_file with Sys_error _ -> ());
    let tphase, s, ping_us, service_ms, tdrain =
      match cfg.workload with
      | Repeat ->
        let sys, _ = start_serve cfg ~metrics_out:(Some snap_file) ~warm ~n_warm tw in
        let a = hup_snapshot sys.daemon in
        let p = measure_serve cfg sys tr ~stream in
        let b = hup_snapshot sys.daemon in
        let ping = ping_rtt_us sys ~n:(if cfg.quick then 5 else 200) in
        let d = stop_serve sys in
        let s = Layers.delta b a in
        (p, s, ping, Layers.hist_mean s "serve.request_ns" /. 1e6, d)
      | Oneshot ->
        let acc = Layers.empty () in
        let read () =
          match Layers.load snap_file with
          | Some s -> Layers.accumulate acc s
          | None -> fail "a one-shot process left no --metrics-out snapshot"
        in
        run_oneshot cfg tw ~stream:warm ~stop:(fun i -> i >= n_warm) ~metrics_out:None;
        let p = measure_oneshot cfg tr ~stream ~metrics_out:(Some snap_file) ~after_proc:read in
        (p, acc, 0.0, 0.0, (0, true))
    in
    settle tr;
    note "traced run: %d requests in %.1fs" (sent tr) tphase.wall_s;
    let traced_rps = throughput tr ~wall_s:tphase.wall_s in
    let reqs = replay_reqs ~stream ~issued:(sent tr) ~cap:(if cfg.quick then 8 else 400) in
    Wlcq_cache.Cache.set_capacity_words cache_capacity;
    let rp = Layers.replay reqs in
    note "replayed %d requests" (List.length reqs);
    Wlcq_cache.Cache.set_capacity_mb 0;
    let startup_ms = Oneshot.startup_ms ~exe:cfg.exe ~reps:(if cfg.quick then 3 else 30) in
    let layers =
      per_layer ~s ~rp ~r:tr ~traced_rps ~untraced_rps ~ping_us ~service_ms ~startup_ms
    in
    write_spans cfg tr;
    let om = Printf.sprintf "%s-s%d-layers.om" (workload_name cfg.workload) cfg.seed in
    Out_channel.with_open_bin om (fun oc ->
        output_string oc
          (Layers.export ~metrics:layers
             ~latencies:
               (("all", Stats.contents tr.lat)
                :: List.map (fun k -> (kind_name k, Stats.contents tr.lat_op.(kind_index k))) kinds)));
    let tcode, tsock = tdrain in
    { metrics = layers; recs = [ warm_rec; r; tw; tr ]; phase = tphase; props;
      drain_ok = drain_ok && tcode = 0 && tsock;
      extra = [ ("daemon_exit", string_of_int drain_code); ("traced_daemon_exit", string_of_int tcode);
                ("socket_removed", string_of_bool (socket_removed && tsock));
                ("openmetrics", json_string (Filename.concat ".wlbench" om));
                ("spans", json_string (Filename.concat ".wlbench" (spans_file cfg))) ] }
  end

let () =
  match
    let cfg = parse_args () in
    (try Unix.mkdir cfg.work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Sys.chdir cfg.work;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (cfg, run cfg)
  with
  | exception Bench_error msg ->
    prerr_endline ("wlbench: " ^ msg);
    exit 2
  | cfg, o ->
    let attempted = List.fold_left (fun a r -> a + sent r) 0 o.recs in
    let failed_n = List.fold_left (fun a r -> a + failed r) 0 o.recs in
    List.iter (fun r -> List.iter (fun f -> prerr_endline ("wlbench: failed " ^ f)) (List.rev r.failures)) o.recs;
    List.iter (fun d -> prerr_endline ("wlbench: routes disagree on " ^ d)) !disagreements;
    if not o.drain_ok then prerr_endline "wlbench: daemon did not drain cleanly";
    if !slowest_served_ms > deadline_tenth_ms then
      Printf.eprintf "wlbench: a problem took %.0f ms in-process, within 10x of the 5 s deadline\n"
        !slowest_served_ms;
    let correct = failed_n = 0 && !disagreements = [] && o.drain_ok in
    let rev, dirty = Host.git_revision ~root:cfg.root in
    let report =
      json_obj
        ([ ("workload", json_string (workload_name cfg.workload)); ("seed", string_of_int cfg.seed);
           ("trace", string_of_bool cfg.trace); ("git_revision", json_string rev);
           ("git_dirty", string_of_bool dirty); ("source_digest", json_string (Host.source_digest ~root:cfg.root));
           ("nproc", string_of_int (Host.nproc ())); ("cpu_model", json_string (Host.cpu_model ()));
           ("ocaml_version", json_string Sys.ocaml_version);
           ("requests", tally_json o.recs); ("measured_wall_s", num o.phase.wall_s);
           ("host_noise", noise_json o.phase.noise); ("properties", props_json o.props);
           ("slowest_served_route_ms", num !slowest_served_ms) ]
         @ o.extra)
    in
    print_endline (json_obj [ ("wlbench_report", report) ]);
    print_endline
      (json_obj
         [ ("correct", string_of_bool correct); ("attempted", string_of_int attempted);
           ("failed", string_of_int failed_n); ("metrics", metrics_json o.metrics) ])
