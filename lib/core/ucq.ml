type t = Cq.t list

let make qs =
  match qs with
  | [] -> invalid_arg "Ucq.make: empty union"
  | first :: _ ->
    let k = Cq.num_free first in
    if k = 0 then invalid_arg "Ucq.make: disjuncts need free variables";
    List.iter
      (fun q ->
         if Cq.num_free q <> k then invalid_arg "Ucq.make: arity mismatch";
         if not (Cq.is_connected q) then
           invalid_arg "Ucq.make: disjuncts must be connected")
      qs;
    qs

let of_string s =
  match Parser.parse_union s with
  | Error e -> Error e
  | Ok parsed ->
    (try Ok (make (List.map (fun p -> p.Parser.query) parsed))
     with Invalid_argument e -> Error e)

let disjuncts u = u

let to_quantum u = Quantum.of_union u

(* inclusion–exclusion has integer coefficients, so the sum is an
   integer *)
let count_answers ?budget u g =
  match
    Wlcq_util.Rat.to_bigint_opt (Quantum.evaluate ?budget (to_quantum u) g)
  with
  | Some n -> n
  | None -> failwith "Ucq.count_answers: non-integral quantum evaluation"

let wl_dimension u = Quantum.hsew (to_quantum u)
