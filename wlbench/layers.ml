(* Per-layer readings for the traced run.  Two sources only:

   - the snapshot the program already exports with [--metrics-out]
     (the daemon's, or each one-shot process's), whose counters say
     what the served path did: counters are taken as they are, and
     histogram means come from the exact [_sum]/[_count] series;
   - an in-process replay of the measured requests that times each
     layer's public function. *)

module G = Wlcq_graph
module Core = Wlcq_core
module Wire = Wlcq_serve.Wire
module Obs = Wlcq_obs.Obs
module Snapshot = Wlcq_obs.Snapshot

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

(* Counters and histogram (sum, count) pairs by sanitised name. *)
type snap = { counters : (string, int) Hashtbl.t; hists : (string, int * int) Hashtbl.t }

let empty () = { counters = Hashtbl.create 64; hists = Hashtbl.create 64 }

let load file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
    match Snapshot.parse text with
    | Error _ -> None
    | Ok s ->
      let t = empty () in
      List.iter (fun (n, v) -> Hashtbl.replace t.counters n v) s.Snapshot.s_counters;
      List.iter
        (fun (n, h) -> Hashtbl.replace t.hists n (h.Snapshot.h_sum, h.Snapshot.h_count))
        s.Snapshot.s_hists;
      Some t)

(* [accumulate into s]: adds [s] (one one-shot process's snapshot). *)
let accumulate into s =
  Hashtbl.iter
    (fun n v ->
       Hashtbl.replace into.counters n (v + Option.value ~default:0 (Hashtbl.find_opt into.counters n)))
    s.counters;
  Hashtbl.iter
    (fun n (sum, cnt) ->
       let s0, c0 = Option.value ~default:(0, 0) (Hashtbl.find_opt into.hists n) in
       Hashtbl.replace into.hists n (s0 + sum, c0 + cnt))
    s.hists

(* [delta b a] is what happened between snapshots [a] and [b]. *)
let delta b a =
  let t = empty () in
  Hashtbl.iter
    (fun n v -> Hashtbl.replace t.counters n (v - Option.value ~default:0 (Hashtbl.find_opt a.counters n)))
    b.counters;
  Hashtbl.iter
    (fun n (s, c) ->
       let s0, c0 = Option.value ~default:(0, 0) (Hashtbl.find_opt a.hists n) in
       Hashtbl.replace t.hists n (s - s0, c - c0))
    b.hists;
  t

let counter s name =
  Option.value ~default:0 (Hashtbl.find_opt s.counters (Snapshot.sanitize name))

(* mean of a histogram in its own unit; 0 when empty *)
let hist_mean s name =
  match Hashtbl.find_opt s.hists (Snapshot.sanitize name) with
  | Some (sum, cnt) when cnt > 0 -> float_of_int sum /. float_of_int cnt
  | _ -> 0.0

(* Wait until the daemon has rewritten its snapshot after a SIGHUP:
   the [serve.flushes] counter is bumped before each render, so a
   snapshot whose count exceeds [after] reflects the state at or after
   the signal. *)
let flushed ~file ~after ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match load file with
    | Some s when counter s "serve.flushes" > after -> Some s
    | _ ->
      if Unix.gettimeofday () > deadline then None
      else begin
        Unix.sleepf 0.005;
        go ()
      end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)
(* ------------------------------------------------------------------ *)

type replay = {
  request_bytes : float;  (** mean encoded request frame *)
  encode_request_us : float;
  decode_request_us : float;
  encode_response_us : float;
  decode_response_us : float;
  spec_parse_us : float;
  parser_parse_us : float;
  canonical_form_us : float;
  address_us : float;
  count_enum_ms : float;
  count_dp_ms : float;
  decide_ms : float;
  treewidth_ms : float;
}

let reps = 5

(* mean wall time of one call, in microseconds, over [reps] calls
   (for the sub-microsecond to microsecond codecs and parsers) *)
let time_us f =
  let t0 = Obs.now_ns () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e3 /. float_of_int reps

let time_ms f =
  let t0 = Obs.now_ns () in
  ignore (Sys.opaque_identity (f ()));
  Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e6

let graphs_of_op = function
  | Wire.Count { graph; _ } | Wire.Count_batch { graph; _ } | Wire.Treewidth { graph } -> [ graph ]
  | Wire.Decide { g1; g2; _ } -> [ g1; g2 ]
  | Wire.Ping -> []

let queries_of_op = function
  | Wire.Count { query; _ } -> [ query ]
  | Wire.Count_batch { queries; _ } -> queries
  | _ -> []

let parse_graph s = Result.get_ok (G.Spec.parse s)

(* The cache tier's search-node cap for canonical forms ([canon_limit]
   in lib/cache/cache.ml, not exported), so the replay times
   [Iso.canonical_form] as the tier runs it. *)
let canon_limit = 1_500
let parse_query s = (Result.get_ok (Core.Parser.parse s)).Core.Parser.query

(* [replay reqs] times each layer's public function on the wire
   requests of a measured phase, with the expected value as the
   response.  Engines run with the cache tier disabled, so a repeated
   problem costs what the engine costs. *)
let replay (reqs : (Wire.request * string) list) =
  let buf () = Stats.buf () in
  let bytes = buf () in
  let enc_req = buf () and dec_req = buf () and enc_resp = buf () and dec_resp = buf () in
  let spec = buf () and parser = buf () and canon = buf () and addr = buf () in
  let enum = buf () and dp = buf () and decide = buf () and tw = buf () in
  let parsed =
    List.map
      (fun ((r : Wire.request), expected) ->
         let frame = Wire.encode_request r in
         let payload = String.sub frame 4 (String.length frame - 4) in
         Stats.push bytes (float_of_int (String.length frame));
         Stats.push enc_req (time_us (fun () -> Wire.encode_request r));
         Stats.push dec_req (time_us (fun () -> Wire.decode_request payload));
         let resp =
           { Wire.r_id = r.Wire.id; r_status = Wire.Ok_; r_value = expected; r_detail = "";
             r_retry_after_ms = None }
         in
         let rframe = Wire.encode_response resp in
         let rpayload = String.sub rframe 4 (String.length rframe - 4) in
         Stats.push enc_resp (time_us (fun () -> Wire.encode_response resp));
         Stats.push dec_resp (time_us (fun () -> Wire.decode_response rpayload));
         let graphs = graphs_of_op r.Wire.op in
         List.iter (fun s -> Stats.push spec (time_us (fun () -> G.Spec.parse s))) graphs;
         let queries = queries_of_op r.Wire.op in
         List.iter (fun s -> Stats.push parser (time_us (fun () -> Core.Parser.parse s))) queries;
         let gs = List.map parse_graph graphs in
         List.iter
           (fun g ->
              if G.Graph.num_vertices g <= Problems.gate then
                Stats.push canon
                  (time_ms (fun () ->
                       try Some (G.Iso.canonical_form ~limit:canon_limit g)
                       with G.Iso.Canonical_limit -> None)
                   *. 1e3);
              (* single call: the tier memoises the as-labelled graph *)
              let t0 = Obs.now_ns () in
              ignore (Wlcq_cache.Cache.address g);
              Stats.push addr (Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e3))
           gs;
         (r.Wire.op, gs, List.map parse_query queries))
      reqs
  in
  let capacity = (Wlcq_cache.Cache.stats ()).Wlcq_cache.Cache.capacity_words in
  Wlcq_cache.Cache.set_capacity_mb 0;
  List.iter
    (fun (op, gs, qs) ->
       match (op, gs) with
       | (Wire.Count _ | Wire.Count_batch _), [ g ] ->
         List.iter
           (fun q ->
              Stats.push enum (time_ms (fun () -> Core.Cq.count_answers q g));
              Stats.push dp (time_ms (fun () -> Core.Fast_count.count_answers q g)))
           qs
       | Wire.Decide { k; _ }, [ g1; g2 ] ->
         Stats.push decide (time_ms (fun () -> Wlcq_wl.Equivalence.equivalent k g1 g2))
       | Wire.Treewidth _, [ g ] ->
         Stats.push tw (time_ms (fun () -> Wlcq_treewidth.Exact.treewidth g))
       | _ -> ())
    parsed;
  Wlcq_cache.Cache.set_capacity_words capacity;
  let m b = Stats.mean (Stats.contents b) in
  { request_bytes = m bytes; encode_request_us = m enc_req; decode_request_us = m dec_req;
    encode_response_us = m enc_resp; decode_response_us = m dec_resp;
    spec_parse_us = m spec; parser_parse_us = m parser;
    canonical_form_us = m canon; address_us = m addr;
    count_enum_ms = m enum; count_dp_ms = m dp; decide_ms = m decide; treewidth_ms = m tw }

(* ------------------------------------------------------------------ *)
(* OpenMetrics export                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-layer numbers as an OpenMetrics snapshot, so [wlcq obs-diff
   --threshold] can diff two traced runs with its noise floors.
   Snapshot counters are integers: times are exported in nanoseconds
   ([_ms]/[_us] suffixes become [_ns]) and shares in parts per
   million ([_ppm]).  Client latencies go in as log2 histograms, one
   per op, in nanoseconds. *)
let export ~(metrics : (string * float * string) list) ~(latencies : (string * float array) list) =
  let counter (name, v, unit) =
    let scaled, suffix =
      match unit with
      | "ms" -> (v *. 1e6, "_ns")
      | "us" -> (v *. 1e3, "_ns")
      | "ratio" -> (v *. 1e6, "_ppm")
      | "1/s" -> (v *. 1e3, "_per_ks")
      | _ -> (v, "")
    in
    let base =
      match String.rindex_opt name '_' with
      | Some i when suffix <> "" && List.mem (String.sub name i (String.length name - i)) [ "_ms"; "_us" ] ->
        String.sub name 0 i
      | _ -> name
    in
    (Snapshot.sanitize ("wlbench." ^ base ^ suffix), int_of_float (Float.round scaled))
  in
  let hist (name, samples_ms) =
    let counts = Array.make Obs.num_buckets 0 in
    let sum = ref 0 in
    Array.iter
      (fun ms ->
         let ns = int_of_float (ms *. 1e6) in
         sum := !sum + ns;
         let b = Obs.bucket_of ns in
         counts.(b) <- counts.(b) + 1)
      samples_ms;
    let cum = ref 0 in
    let buckets =
      List.filter_map
        (fun i ->
           cum := !cum + counts.(i);
           if counts.(i) > 0 || i = Obs.num_buckets - 1 then Some (Obs.bucket_upper i, !cum) else None)
        (List.init Obs.num_buckets Fun.id)
    in
    ( Snapshot.sanitize ("wlbench.latency." ^ name ^ "_ns"),
      { Snapshot.h_count = Array.length samples_ms; h_sum = !sum; h_buckets = buckets } )
  in
  Snapshot.render
    { Snapshot.s_counters = List.sort compare (List.map counter metrics);
      s_hists = List.sort compare (List.map hist latencies) }
