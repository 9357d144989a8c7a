(* Request execution: one decoded wire request in, one response out.

   Parsing of the embedded query/graph specs happens here, inside the
   worker, so malformed payloads surface as structured [Error]
   responses.  Engine outcomes map onto wire statuses:
   [`Exact]/[`Degraded]/[`Exhausted] become [Ok_]/[Degraded]/
   [Exhausted], a raised [Budget.Exhausted] (from a raising entry
   point) becomes [Exhausted] too.  Containment of everything else —
   including [Worker_raise] fault injections — lives in the server's
   worker wrapper, not here.

   Counts and verdicts are isomorphism invariants, so the daemon
   answers a resubmission, relabelled or not, from one store in the
   cache tier keyed on canonical addresses.  [Dispatch] prices each
   probe: the labelling may spend at most the work it could save, and
   within the request's budget.  A request it declines, or whose
   labelling runs out of nodes or budget, is computed and stored
   nowhere.  Only exact values enter the store.  Treewidths go through
   the decomposition store of [Exact], which addresses a graph only
   once its heuristic bracket stays open. *)

module G = Wlcq_graph
module Core = Wlcq_core
module Bigint = Wlcq_util.Bigint
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome
module Cache = Wlcq_cache.Cache
module Dispatch = Wlcq_dispatch.Dispatch

let reply ?(value = "") ?(detail = "") ~id status =
  {
    Wire.r_id = id;
    r_status = status;
    r_value = value;
    r_detail = detail;
    r_retry_after_ms = None;
  }

let error ~id msg = reply ~id ~detail:msg Wire.Error_

let degraded_detail (r : Outcome.reason) =
  Printf.sprintf "%s via %s" (Budget.reason_to_string r.Outcome.cause)
    r.Outcome.fallback

let ( let* ) r f =
  match r with Ok v -> f v | Error e -> `Malformed e

let parse_graph s =
  match G.Spec.parse s with
  | Ok g -> Ok g
  | Error e -> Error e

let parse_query s =
  match Core.Parser.parse s with
  | Ok p -> Ok p.Core.Parser.query
  | Error e -> Error e

(* The reply value of each exact answer, by request key:
   [count|<query digest>|<graph address>] and
   [decide|<k>|<lower address>|<higher address>]. *)
let answers =
  Cache.store ~name:"serve.answers"
    ~words:(fun v -> 4 + (String.length v / (Sys.word_size / 8)))
    ()

(* [g]'s canonical address within the node budget [Dispatch] sets for
   [probe] and within [budget]; [None] when the tier is off, the probe
   is declined or the labelling runs out of nodes or budget. *)
let address ~budget probe g =
  if not (Cache.enabled ()) then None
  else
    let nodes =
      Dispatch.choose_address probe ~n:(G.Graph.num_vertices g)
        ~m:(G.Graph.num_edges g)
    in
    Option.map fst (Cache.canonical_address ~budget ~nodes g)

(* the key of |Ans(q, G)| on a graph addressed [ga]: the query's
   normal form colours free against quantified variables by value, so
   renamed variables and a shuffled head share it and queries that
   differ in their free variables do not.  A query is priced by its own
   size, like any small graph. *)
let count_key ~budget ga (q : Core.Cq.t) =
  let h = q.Core.Cq.graph in
  let limit =
    Dispatch.address_nodes Dispatch.Probe_graph ~n:(G.Graph.num_vertices h)
      ~m:(G.Graph.num_edges h)
  in
  match Core.Cq.normal_form ~budget ~limit q with
  | _, _, d -> Some ("count|" ^ d ^ "|" ^ ga)
  | exception G.Iso.Canonical_limit -> None

(* Answer [key] from the store, or run [compute] and store its value
   when it is exact. *)
let stored key compute =
  match key with
  | None -> compute ()
  | Some key -> (
    match Cache.find answers key with
    | Some v -> `Value (v, "")
    | None ->
      let r = compute () in
      (match r with `Value (v, _) -> Cache.add answers key v | _ -> ());
      r)

let count ~budget q g =
  match Core.Fast_count.count_answers_budgeted ~budget q g with
  | `Exact n -> `Value (Bigint.to_string n, "")
  | `Degraded (n, r) -> `Degraded (Bigint.to_string n, degraded_detail r)
  | `Exhausted (partial, r) ->
    `Exhausted
      (Printf.sprintf "%s; sound lower bound %s"
         (Budget.reason_to_string r) (Bigint.to_string partial))

(* all queries share the request budget: the batch degrades or
   exhausts as a unit, with completed counts kept as a sound prefix *)
let count_batch ~budget qs g =
  let total = List.length qs in
  let rec go acc worst = function
    | [] ->
      let value = String.concat "," (List.rev acc) in
      (match worst with
       | None -> `Value (value, "")
       | Some detail -> `Degraded (value, detail))
    | q :: rest -> (
      match Core.Fast_count.count_answers_budgeted ~budget q g with
      | `Exact n -> go (Bigint.to_string n :: acc) worst rest
      | `Degraded (n, r) ->
        go (Bigint.to_string n :: acc) (Some (degraded_detail r)) rest
      | `Exhausted (_, r) ->
        `Exhausted
          (Printf.sprintf "%s after %d of %d queries"
             (Budget.reason_to_string r) (List.length acc) total))
  in
  go [] None qs

let rec parse_queries acc = function
  | [] -> Ok (List.rev acc)
  | s :: rest -> (
    match parse_query s with
    | Ok q -> parse_queries (q :: acc) rest
    | Error e -> Error e)

(* A batch addresses its graph once and answers from the store only
   when every query hits; otherwise it counts them all and stores each
   count of an exact batch. *)
let batch ~budget qs g =
  let costs = List.map (fun q -> Core.Fast_count.answer_costs q g) qs in
  let keys =
    match address ~budget (Dispatch.Probe_count costs) g with
    | None -> None
    | Some a ->
      let ks = List.filter_map (count_key ~budget a) qs in
      if List.compare_lengths ks qs = 0 then Some ks else None
  in
  let rec hits acc = function
    | [] -> Some (List.rev acc)
    | k :: rest -> (
      match Cache.find answers k with
      | Some v -> hits (v :: acc) rest
      | None -> None)
  in
  match Option.bind keys (hits []) with
  | Some vs -> `Value (String.concat "," vs, "")
  | None ->
    let r = count_batch ~budget qs g in
    (match (r, keys) with
     | `Value (v, _), Some ks ->
       let vs = String.split_on_char ',' v in
       if List.compare_lengths ks vs = 0 then List.iter2 (Cache.add answers) ks vs
     | _ -> ());
    r

let run_op ~budget (op : Wire.op) =
  match op with
  | Wire.Ping -> `Value ("pong", "")
  | Wire.Decide { k; g1; g2 } ->
    let* g1 = parse_graph g1 in
    let* g2 = parse_graph g2 in
    let key =
      match address ~budget (Dispatch.Probe_decide k) g1 with
      | None -> None
      | Some a1 ->
        Option.map
          (fun a2 ->
             let lo, hi = if String.compare a1 a2 <= 0 then (a1, a2) else (a2, a1) in
             Printf.sprintf "decide|%d|%s|%s" k lo hi)
          (address ~budget (Dispatch.Probe_decide k) g2)
    in
    stored key (fun () ->
        match Wlcq_wl.Equivalence.equivalent_budgeted ~budget k g1 g2 with
        | `Exact eq -> `Value (string_of_bool eq, "")
        | `Degraded (eq, r) -> `Degraded (string_of_bool eq, degraded_detail r)
        | `Exhausted r -> `Exhausted (Budget.reason_to_string r))
  | Wire.Count { query; graph } ->
    let* q = parse_query query in
    let* g = parse_graph graph in
    let key =
      Option.bind
        (address ~budget
           (Dispatch.Probe_count [ Core.Fast_count.answer_costs q g ]) g)
        (fun a -> count_key ~budget a q)
    in
    stored key (fun () -> count ~budget q g)
  | Wire.Count_batch { queries; graph } ->
    let* g = parse_graph graph in
    let* qs = parse_queries [] queries in
    batch ~budget qs g
  | Wire.Treewidth { graph } ->
    let* g = parse_graph graph in
    (match Wlcq_treewidth.Exact.treewidth_stored ~budget g with
     | `Exact w -> `Value (string_of_int w, "")
     | `Degraded (w, r) -> `Degraded (string_of_int w, degraded_detail r)
     | `Exhausted _ -> `Exhausted "treewidth exhausted")

let execute ~budget (req : Wire.request) =
  let id = req.Wire.id in
  match run_op ~budget req.Wire.op with
  | `Value (value, detail) -> reply ~id ~value ~detail Wire.Ok_
  | `Degraded (value, detail) -> reply ~id ~value ~detail Wire.Degraded
  | `Exhausted detail -> reply ~id ~detail Wire.Exhausted
  | `Malformed msg -> error ~id msg
  | exception Budget.Exhausted r ->
    reply ~id ~detail:(Budget.reason_to_string r) Wire.Exhausted
