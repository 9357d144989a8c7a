(* Request execution: one decoded wire request in, one response out.

   Parsing of the embedded query/graph specs happens here, inside the
   worker, so malformed payloads surface as structured [Error]
   responses.  Engine outcomes map onto wire statuses:
   [`Exact]/[`Degraded]/[`Exhausted] become [Ok_]/[Degraded]/
   [Exhausted], a raised [Budget.Exhausted] (from a raising entry
   point) becomes [Exhausted] too.  Containment of everything else —
   including [Worker_raise] fault injections — lives in the server's
   worker wrapper, not here. *)

module G = Wlcq_graph
module Core = Wlcq_core
module Bigint = Wlcq_util.Bigint
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome

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

let run_op ~budget (op : Wire.op) =
  match op with
  | Wire.Ping -> `Value ("pong", "")
  | Wire.Decide { k; g1; g2 } -> (
    let* g1 = parse_graph g1 in
    let* g2 = parse_graph g2 in
    match Wlcq_wl.Equivalence.equivalent_budgeted ~budget k g1 g2 with
    | `Exact eq -> `Value (string_of_bool eq, "")
    | `Degraded (eq, r) -> `Degraded (string_of_bool eq, degraded_detail r)
    | `Exhausted r -> `Exhausted (Budget.reason_to_string r))
  | Wire.Count { query; graph } -> (
    let* q = parse_query query in
    let* g = parse_graph graph in
    match Core.Fast_count.count_answers_budgeted ~budget q g with
    | `Exact n -> `Value (Bigint.to_string n, "")
    | `Degraded (n, r) -> `Degraded (Bigint.to_string n, degraded_detail r)
    | `Exhausted (partial, r) ->
      `Exhausted
        (Printf.sprintf "%s; sound lower bound %s"
           (Budget.reason_to_string r) (Bigint.to_string partial)))
  | Wire.Count_batch { queries; graph } -> (
    let* g = parse_graph graph in
    (* all queries share the request budget (and through it the cache
       tier): the batch degrades or exhausts as a unit, with completed
       counts kept as a sound prefix *)
    let rec go acc worst = function
      | [] ->
        let value = String.concat "," (List.rev acc) in
        (match worst with
         | None -> `Value (value, "")
         | Some detail -> `Degraded (value, detail))
      | q :: rest -> (
        match parse_query q with
        | Error e -> `Malformed e
        | Ok q -> (
          match Core.Fast_count.count_answers_budgeted ~budget q g with
          | `Exact n -> go (Bigint.to_string n :: acc) worst rest
          | `Degraded (n, r) ->
            go (Bigint.to_string n :: acc) (Some (degraded_detail r)) rest
          | `Exhausted (_, r) ->
            `Exhausted
              (Printf.sprintf "%s after %d of %d queries"
                 (Budget.reason_to_string r) (List.length acc)
                 (List.length queries))))
    in
    go [] None queries)
  | Wire.Treewidth { graph } -> (
    let* g = parse_graph graph in
    match Wlcq_treewidth.Exact.treewidth_budgeted ~budget g with
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
